//! The memory-access path: L1 → L2 → directory transactions, with
//! Rebound's dependence recording (Fig 3.2) woven through.

use rebound_coherence::MsgKind;
use rebound_engine::{Addr, CoreId, LineAddr, LineId};
use rebound_mem::{L1Line, L2Line, MemAccessClass, MesiState};

use crate::metrics::OverheadKind;

use super::{Machine, DELAYED_FLUSH_STALL};

impl Machine {
    /// Performs one memory access for `core`, returning its latency in
    /// cycles. `demand` is false only for accesses synthesized by the
    /// checkpoint machinery.
    pub(crate) fn access(&mut self, core: CoreId, addr: Addr, is_write: bool, demand: bool) -> u64 {
        let line = addr.line(self.geom);
        self.metrics.l1_accesses.incr();
        let idx = core.index();

        if !is_write {
            // Read: L1 hit is the fast path.
            if self.cores[idx].l1.get(line).is_some() {
                return self.cfg.l1_hit_cycles;
            }
            self.metrics.l2_accesses.incr();
            if let Some(l2) = self.cores[idx].l2.get(line) {
                debug_assert!(l2.state.is_valid());
                self.l1_fill(core, line);
                return self.cfg.l2_hit_cycles;
            }
            let id = self.lines.intern(line);
            let (lat, state, value) = self.read_transaction(core, line, id, demand);
            self.l2_insert(
                core,
                line,
                L2Line {
                    state,
                    value,
                    delayed: false,
                },
            );
            self.l1_fill(core, line);
            return lat;
        }

        // Store path. Every store of a dependence-tracked machine feeds the
        // write signature ("the addresses of all the lines that the
        // processor has written to ... in the current checkpoint interval").
        let tracked = self.tracks_addr(addr);
        if tracked {
            self.cores[idx].dep.active_mut().wsig.insert(line);
            self.metrics.wsig_ops.incr();
        }
        // Sync words (lock lines, barrier count/flag, BarCK_sent) are
        // lowered to real coherence stores, but they are machinery, not
        // application data: consuming a (core, store_seq) value for them
        // would couple every later data store's value to arrival order —
        // e.g. *which* core writes the barrier release flag is timing-
        // dependent, so one scheme (or a recovered faulty run) would
        // commit a shifted value sequence on that core and bit-exact
        // cross-run data comparisons would diverge on data lines.
        let is_sync = rebound_workloads::AddressLayout.is_sync(addr);
        let value = if is_sync {
            self.peek_store_value(core)
        } else {
            self.store_value(core)
        };
        // Rebound_Epoch: every data store stamps its line with the
        // writer's current epoch — the provenance of the line's *new*
        // value (overwrite, not max). Sync machinery is excluded: it is
        // never consumed through the probing access path.
        if !is_sync && matches!(self.cfg.scheme, crate::config::Scheme::Epoch { .. }) {
            let id = self.lines.intern(line);
            let epoch = self.cores[idx].epoch;
            self.stamp_line_epoch(id, epoch);
        }
        self.metrics.l2_accesses.incr();

        let l2_state = self.cores[idx].l2.peek(line).map(|l| (l.state, l.delayed));
        match l2_state {
            Some((state, delayed)) if state.can_write_silently() => {
                // A write to a still-Delayed line forces its checkpoint
                // value out to memory first (§4.1).
                if delayed {
                    self.flush_delayed_line(core, line);
                }
                let c = &mut self.cores[idx];
                let l = c.l2.get_mut(line).expect("peeked line present");
                l.state = MesiState::Modified;
                l.value = value;
                if c.l1.peek(line).is_some() {
                    c.l1.insert(line, L1Line);
                }
                self.cfg.l2_hit_cycles
            }
            Some((MesiState::Shared, _)) => {
                // Upgrade: invalidate the other sharers via the directory.
                let id = self.lines.intern(line);
                let lat = self.write_transaction(core, line, id, demand, true);
                let c = &mut self.cores[idx];
                let l = c.l2.get_mut(line).expect("upgrading resident line");
                l.state = MesiState::Modified;
                l.value = value;
                lat
            }
            _ => {
                // Write miss.
                let id = self.lines.intern(line);
                let lat = self.write_transaction(core, line, id, demand, false);
                self.l2_insert(
                    core,
                    line,
                    L2Line {
                        state: MesiState::Modified,
                        value,
                        delayed: false,
                    },
                );
                if self.cores[idx].l1.peek(line).is_some() {
                    self.cores[idx].l1.insert(line, L1Line);
                }
                lat
            }
        }
    }

    /// Fills a line into the L1, maintaining inclusion (silent eviction).
    fn l1_fill(&mut self, core: CoreId, line: LineAddr) {
        let _ = self.cores[core.index()].l1.insert(line, L1Line);
    }

    /// Inserts a line into the L2, handling the displaced victim: dirty
    /// victims are written back (and logged); L1 inclusion is maintained.
    pub(crate) fn l2_insert(&mut self, core: CoreId, line: LineAddr, data: L2Line) {
        let evicted = self.cores[core.index()].l2.insert(line, data);
        if let Some(ev) = evicted {
            self.handle_l2_eviction(core, ev.addr, ev.data);
        }
    }

    /// Handles an L2 eviction: inclusion invalidation, directory update,
    /// dirty writeback with logging. LW-ID is *not* cleared ("Doing so
    /// would result in losing the ability to record dependences", §3.3.1).
    fn handle_l2_eviction(&mut self, core: CoreId, line: LineAddr, data: L2Line) {
        self.cores[core.index()].l1.invalidate(line);
        let id = self.lines.intern(line);
        let mut e = self.dir.entry_mut(id);
        if e.owner() == Some(core) {
            e.set_owner(None);
            e.set_dirty(false);
        }
        e.remove_sharer(core);
        if data.state.is_dirty() {
            let (interval, class) = if data.delayed {
                (
                    self.cores[core.index()].drain.interval,
                    MemAccessClass::Checkpoint,
                )
            } else {
                (
                    self.cores[core.index()].dep.active().interval,
                    MemAccessClass::Demand,
                )
            };
            self.memory_writeback(core, line, data.value, interval, class);
        }
    }

    /// Writes `value` of `line` to memory on behalf of `core`, logging the
    /// old value (ReVive-style, §3.3.3) when the scheme checkpoints.
    /// Returns the controller completion latency relative to now.
    pub(crate) fn memory_writeback(
        &mut self,
        core: CoreId,
        line: LineAddr,
        value: u64,
        interval: u64,
        class: MemAccessClass,
    ) -> u64 {
        let logging = self.cfg.scheme.checkpoints();
        let resp = self.mem_ctl.access(self.now, line, class, logging);
        let id = self.lines.intern(line);
        let old = self.memory.write(id, value);
        if logging && self.log.append(core, interval, line, id, old) {
            self.metrics.log_entries.incr();
        }
        self.msgs.record(MsgKind::Writeback);
        self.metrics.mem_lines.incr();
        resp.complete_at.saturating_since(self.now)
    }

    /// Forces the checkpoint-time value of a Delayed line out to memory
    /// (write-to-delayed-line and ownership-transfer cases of §4.1).
    pub(crate) fn flush_delayed_line(&mut self, core: CoreId, line: LineAddr) {
        let idx = core.index();
        let Some(l) = self.cores[idx].l2.peek_mut(line) else {
            return;
        };
        if !l.delayed {
            return;
        }
        l.delayed = false;
        let value = l.value;
        // The flushed line keeps a clean copy: Modified → Exclusive.
        l.state = MesiState::Exclusive;
        let interval = self.cores[idx].drain.interval;
        let _ = self.memory_writeback(core, line, value, interval, MemAccessClass::Checkpoint);
        let id = self.lines.intern(line);
        self.dir.clean_owned_line(id, core);
        // The write waits only until the old value is safely in the L2's
        // writeback buffer (the controller transfer proceeds behind it);
        // charge that fixed pipeline cost as checkpoint overhead.
        self.cores[idx]
            .stall
            .add(OverheadKind::WbDelay, DELAYED_FLUSH_STALL);
    }

    // ------------------------------------------------------------------
    // Directory transactions
    // ------------------------------------------------------------------

    /// Read (GetS) transaction. `id` is `line`'s interned key (the caller
    /// already holds it, so the directory/memory lookups are pure array
    /// indexing). Returns (latency, granted MESI state, line value).
    fn read_transaction(
        &mut self,
        requester: CoreId,
        line: LineAddr,
        id: LineId,
        demand: bool,
    ) -> (u64, MesiState, u64) {
        self.msgs.record(MsgKind::GetS);
        let home = self.home_of(line);
        let mut lat = self.net.to_directory(requester, home);
        let dir_owner = self.dir.entry(id).owner();

        if let Some(owner) = dir_owner.filter(|&o| o != requester) {
            let owner_line = self.cores[owner.index()].l2.peek(line).copied();
            if let Some(ol) = owner_line.filter(|l| l.state.can_write_silently()) {
                // Forward to the owner; it supplies the data (Fig 3.2 RD row).
                self.msgs.record(MsgKind::FwdGetS);
                self.msgs.record(MsgKind::Data);
                lat += self.net.one_way(home, owner)
                    + self.net.one_way(owner, requester)
                    + self.cfg.l2_hit_cycles;
                let value = ol.value;
                if ol.state.is_dirty() {
                    // MESI M→S: dirty data is written back to memory. A
                    // Delayed line's flush is checkpoint-class traffic.
                    let (interval, class) = if ol.delayed {
                        (
                            self.cores[owner.index()].drain.interval,
                            MemAccessClass::Checkpoint,
                        )
                    } else {
                        (
                            self.cores[owner.index()].dep.active().interval,
                            MemAccessClass::Demand,
                        )
                    };
                    self.memory_writeback(owner, line, value, interval, class);
                }
                {
                    let l = self.cores[owner.index()]
                        .l2
                        .peek_mut(line)
                        .expect("owner line present");
                    l.state = MesiState::Shared;
                    l.delayed = false;
                }
                if self.tracks_line(line) {
                    self.record_dependence(owner, requester, line);
                }
                let mut e = self.dir.entry_mut(id);
                e.set_owner(None);
                e.set_dirty(false);
                e.insert_sharer(owner);
                e.insert_sharer(requester);
                return (lat, MesiState::Shared, value);
            }
            // Stale owner (should not normally happen: evictions update the
            // directory); fall through to a memory fetch.
            let mut e = self.dir.entry_mut(id);
            e.set_owner(None);
            e.set_dirty(false);
        }

        // One 16-byte entry read covers the rest of the transaction: the
        // scalars are extracted up front so the borrow ends before the
        // memory/network mutations below.
        let entry = self.dir.entry(id);
        let other_sharer = entry.sharers().find(|&s| s != requester);
        let has_sharers = !entry.sharers_empty();
        let lw_id = entry.lw_id();
        let value;
        let mut granted = MesiState::Shared;
        if let Some(sharer) = other_sharer {
            // Cache-to-cache transfer from a clean sharer.
            self.msgs.record(MsgKind::Data);
            lat += self.net.one_way(home, sharer)
                + self.net.one_way(sharer, requester)
                + self.cfg.l2_hit_cycles;
            value = self.memory.read(id); // clean copies match memory
        } else {
            // Fetch from memory.
            self.msgs.record(MsgKind::Data);
            let resp = self
                .mem_ctl
                .access(self.now, line, MemAccessClass::Demand, false);
            self.metrics.mem_lines.incr();
            lat += resp.complete_at.saturating_since(self.now);
            if demand && resp.interference > 0 {
                self.cores[requester.index()]
                    .stall
                    .add(OverheadKind::Ipc, resp.interference);
            }
            value = self.memory.read(id);
            if !has_sharers {
                granted = MesiState::Exclusive;
            }
        }

        // Lazy dependence recording against a (possibly stale) LW-ID.
        if self.tracks_line(line) {
            if let Some(w) = lw_id.filter(|&w| w != requester) {
                self.lw_query(w, requester, line, id);
            }
        }

        let tracked = self.tracks_line(line);
        let mut e = self.dir.entry_mut(id);
        if granted == MesiState::Exclusive {
            e.set_owner(Some(requester));
            e.set_dirty(false);
            // RDX: "a RDX transaction, like a WR one, saves the reader's
            // PID in LW-ID" (Fig 3.2) — the processor may write silently.
            if tracked {
                e.set_lw_id(Some(requester));
                self.metrics.lwid_updates.incr();
                self.cores[requester.index()]
                    .dep
                    .active_mut()
                    .wsig
                    .insert(line);
                self.metrics.wsig_ops.incr();
            }
        } else {
            e.insert_sharer(requester);
        }
        (lat, granted, value)
    }

    /// Write (GetX) transaction: invalidations, ownership transfer, LW-ID
    /// update. `upgrade` means the requester already holds the line Shared.
    fn write_transaction(
        &mut self,
        writer: CoreId,
        line: LineAddr,
        id: LineId,
        demand: bool,
        upgrade: bool,
    ) -> u64 {
        self.msgs.record(MsgKind::GetX);
        let home = self.home_of(line);
        let mut lat = self.net.to_directory(writer, home);
        let entry = self.dir.entry(id);
        let old_owner = entry.owner().filter(|&o| o != writer);
        let lw_id = entry.lw_id();

        // Invalidate all other sharers (in parallel; one round trip). The
        // sharer iterator owns its data, so the walk can mutate the cores
        // directly — no intermediate collection needed.
        let mut worst = 0;
        for s in entry.sharers() {
            if s == writer {
                continue;
            }
            self.msgs.record(MsgKind::Inval);
            self.msgs.record(MsgKind::InvAck);
            self.cores[s.index()].l1.invalidate(line);
            self.cores[s.index()].l2.invalidate(line);
            worst = worst.max(self.net.round_trip(home, s));
        }
        lat += worst;

        let mut fetched = upgrade;
        if let Some(owner) = old_owner {
            let has = self.cores[owner.index()]
                .l2
                .peek(line)
                .map(|l| (l.state, l.delayed, l.value));
            if let Some((state, delayed, value)) = has.filter(|(s, _, _)| s.is_valid()) {
                // Transfer ownership cache-to-cache.
                self.msgs.record(MsgKind::FwdGetS);
                self.msgs.record(MsgKind::Data);
                lat += self.net.one_way(home, owner)
                    + self.net.one_way(owner, writer)
                    + self.cfg.l2_hit_cycles;
                if delayed && state.is_dirty() {
                    // The checkpoint-time value must reach memory before
                    // the new owner overwrites the line (§4.1 semantics).
                    let interval = self.cores[owner.index()].drain.interval;
                    self.memory_writeback(owner, line, value, interval, MemAccessClass::Checkpoint);
                }
                if self.tracks_line(line) {
                    self.record_dependence(owner, writer, line);
                }
                self.cores[owner.index()].l1.invalidate(line);
                self.cores[owner.index()].l2.invalidate(line);
                fetched = true;
            } else {
                self.dir.entry_mut(id).set_owner(None);
            }
        } else if self.tracks_line(line) {
            // No owner to ride on: dependence recording needs an explicit
            // "are you the last writer?" query (the Table 6.1 extra traffic).
            if let Some(w) = lw_id.filter(|&w| w != writer) {
                self.lw_query(w, writer, line, id);
            }
        }

        if !fetched {
            // Write miss with no owner: fetch the line from memory.
            self.msgs.record(MsgKind::Data);
            let resp = self
                .mem_ctl
                .access(self.now, line, MemAccessClass::Demand, false);
            self.metrics.mem_lines.incr();
            lat += resp.complete_at.saturating_since(self.now);
            if demand && resp.interference > 0 {
                self.cores[writer.index()]
                    .stall
                    .add(OverheadKind::Ipc, resp.interference);
            }
        }

        let tracked = self.tracks_line(line);
        let mut e = self.dir.entry_mut(id);
        e.clear_sharers();
        e.set_owner(Some(writer));
        e.set_dirty(true);
        if tracked {
            e.set_lw_id(Some(writer));
            self.metrics.lwid_updates.incr();
        }
        lat
    }

    /// The lazy "are you the last writer?" query (§3.3.2): the LW-ID
    /// processor checks its WSIGs in reverse age; a hit records the
    /// dependence, a miss sends NO_WR and clears the stale LW-ID. The
    /// requester's MyProducers is (optimistically) updated either way and
    /// is allowed to stay a superset.
    fn lw_query(&mut self, last_writer: CoreId, requester: CoreId, line: LineAddr, id: LineId) {
        self.msgs.record(MsgKind::LwQuery);
        if self.record_dependence(last_writer, requester, line) {
            self.msgs.record(MsgKind::LwAck);
        } else {
            self.msgs.record(MsgKind::NoWr);
            self.dir.entry_mut(id).set_lw_id(None);
        }
    }

    /// Whether dependence tracking applies to `line` (scheme + runtime
    /// switch + untracked address ranges).
    pub(crate) fn tracks_line(&self, line: LineAddr) -> bool {
        self.tracks_addr(line.base(self.geom))
    }

    /// Records that `requester` consumed `line` from `supplier`: a WSIG
    /// match in reverse age marks the requester in that Dep set's
    /// MyConsumers (and, when the exact shadow agrees, in the oracle sets
    /// of the FP study), and the requester's MyProducers always gains the
    /// supplier — it is updated before any reply could arrive (§3.3.2).
    /// Returns whether the WSIG matched. The owner-forward paths call this
    /// directly: the dependence rides on their existing messages, so no
    /// extra traffic is counted.
    fn record_dependence(&mut self, supplier: CoreId, requester: CoreId, line: LineAddr) -> bool {
        self.metrics.wsig_ops.incr();
        let requester_bit = self.dep_bit_of(requester);
        let supplier_bit = self.dep_bit_of(supplier);
        let dep = &mut self.cores[supplier.index()].dep;
        let hit = dep.wsig_match_reverse_age(line);
        let mut exact = false;
        if let Some(set_idx) = hit {
            dep.set_mut(set_idx).my_consumers.insert(requester_bit);
            if let Some(exact_idx) = dep.exact_match_reverse_age(line) {
                dep.set_mut(exact_idx)
                    .oracle_consumers
                    .insert(requester_bit);
                exact = true;
            }
        }
        let active = self.cores[requester.index()].dep.active_mut();
        if exact {
            active.oracle_producers.insert(supplier_bit);
        }
        active.my_producers.insert(supplier_bit);
        hit.is_some()
    }
}
