//! Micro-benchmarks of the core data structures: the per-access costs
//! Rebound adds to the machine (WSIG maintenance, LW-ID bookkeeping,
//! logging) and the substrate structures they ride on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use rebound_coherence::{CoreSet, Directory};
use rebound_core::{DepRegFile, Wsig};
use rebound_engine::{CoreId, Cycle, DetRng, EventQueue, LineAddr, LineId};
use rebound_mem::{
    CacheConfig, L2Line, MemAccessClass, MemoryController, MemoryTiming, MesiState,
    RollbackTargets, SetAssoc, UndoLog,
};

fn bench_wsig(c: &mut Criterion) {
    let mut g = c.benchmark_group("wsig");
    g.bench_function("insert_1024b", |b| {
        let mut w = Wsig::new(1024, 2);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            w.insert(LineAddr(i % 4096));
        });
    });
    g.bench_function("lookup_hit", |b| {
        let mut w = Wsig::new(1024, 2);
        for i in 0..128 {
            w.insert(LineAddr(i));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(w.contains(LineAddr(i % 128)))
        });
    });
    g.bench_function("lookup_miss", |b| {
        let mut w = Wsig::new(1024, 2);
        for i in 0..128 {
            w.insert(LineAddr(i));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(w.contains(LineAddr(10_000 + i % 4096)))
        });
    });
    g.finish();
}

fn bench_depregs(c: &mut Criterion) {
    let mut g = c.benchmark_group("depregs");
    g.bench_function("reverse_age_match", |b| {
        let mut f = DepRegFile::new(4, 1024, 2);
        f.active_mut().wsig.insert(LineAddr(7));
        f.rotate(Cycle(0), 100).unwrap();
        f.active_mut().wsig.insert(LineAddr(7));
        b.iter(|| black_box(f.wsig_match_reverse_age(LineAddr(7))));
    });
    g.bench_function("rotate_reclaim", |b| {
        b.iter_batched(
            || DepRegFile::new(4, 1024, 2),
            |mut f| {
                f.rotate(Cycle(0), 10).unwrap();
                f.complete(0, Cycle(1));
                f.reclaim(Cycle(1_000), 10);
                black_box(f.len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_coreset(c: &mut Criterion) {
    let mut g = c.benchmark_group("coreset");
    g.bench_function("closure_64", |b| {
        // Transitive closure over a producer graph — the heart of the
        // interaction-set collection.
        let producers: Vec<CoreSet> = (0..64usize)
            .map(|i| {
                let mut s = CoreSet::new();
                s.insert(CoreId((i + 1) % 64));
                s.insert(CoreId((i + 7) % 64));
                s
            })
            .collect();
        b.iter(|| {
            let mut set = CoreSet::singleton(CoreId(0));
            let mut work = vec![CoreId(0)];
            while let Some(x) = work.pop() {
                for p in producers[x.index()].iter() {
                    if set.insert(p) {
                        work.push(p);
                    }
                }
            }
            black_box(set.len())
        });
    });
    g.finish();
}

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("undo_log");
    g.bench_function("append_filtered", |b| {
        let mut log = UndoLog::new(4, 44);
        log.append_stub(CoreId(0), 0);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(log.append(CoreId(0), 0, LineAddr(i % 512), LineId((i % 512) as u32), i))
        });
    });
    g.bench_function("rollback_1k_entries", |b| {
        b.iter_batched(
            || {
                let mut log = UndoLog::new(4, 44);
                log.append_stub(CoreId(0), 0);
                for i in 0..1_000u64 {
                    log.append(
                        CoreId(0),
                        1 + i,
                        LineAddr(i % 256),
                        LineId((i % 256) as u32),
                        i,
                    );
                }
                log
            },
            |mut log| {
                let targets = RollbackTargets::from_pairs(&[(0, 0)]);
                black_box(log.rollback(&targets).restores.len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("l2_hit", |b| {
        let mut l2: SetAssoc<L2Line> = SetAssoc::new(CacheConfig::new(256 * 1024, 8, 32));
        for i in 0..4096 {
            l2.insert(
                LineAddr(i),
                L2Line {
                    state: MesiState::Exclusive,
                    value: i,
                    delayed: false,
                },
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(l2.get(LineAddr(i % 4096)).is_some())
        });
    });
    g.bench_function("l2_miss_evict", |b| {
        let mut l2: SetAssoc<L2Line> = SetAssoc::new(CacheConfig::new(16 * 1024, 8, 32));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(
                l2.insert(
                    LineAddr(i),
                    L2Line {
                        state: MesiState::Modified,
                        value: i,
                        delayed: false,
                    },
                )
                .is_some(),
            )
        });
    });
    g.finish();
}

fn bench_directory(c: &mut Criterion) {
    let mut g = c.benchmark_group("directory");
    g.bench_function("entry_update", |b| {
        let mut dir = Directory::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut e = dir.entry_mut(LineId((i % 8192) as u32));
            e.set_lw_id(Some(CoreId((i % 64) as usize)));
            black_box(e.lw_id())
        });
    });
    g.bench_function("read_modify_sharers", |b| {
        // The GetS tail: read the entry scalars, then add a sharer —
        // exactly the pattern `read_transaction` runs per miss.
        let mut dir = Directory::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = LineId((i % 8192) as u32);
            let owner = dir.entry(id).owner();
            let mut e = dir.entry_mut(id);
            if i.is_multiple_of(17) {
                e.clear_sharers();
            } else {
                e.insert_sharer(CoreId((i % 64) as usize));
            }
            black_box(owner)
        });
    });
    g.finish();
}

fn bench_mem_controller(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_controller");
    g.bench_function("logged_writeback", |b| {
        let mut mc = MemoryController::new(2, MemoryTiming::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(mc.access(Cycle(i * 50), LineAddr(i), MemAccessClass::Checkpoint, true))
        });
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("event_queue_push_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = DetRng::new(7);
        b.iter(|| {
            q.push(Cycle(rng.below(1_000_000)), 1);
            if q.len() > 1_000 {
                black_box(q.pop());
                black_box(q.pop());
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_wsig,
    bench_depregs,
    bench_coreset,
    bench_log,
    bench_cache,
    bench_directory,
    bench_mem_controller,
    bench_engine
);
criterion_main!(benches);
