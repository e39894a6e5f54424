//! Content-addressed, resumable campaign result store.
//!
//! A campaign job's result is a pure function of its *semantic identity*
//! — scheme, application, core count, seed, fault-plan triggers, run
//! scale, oracle flag — plus the code that simulates it. This module
//! persists one [`RunRow`] per identity under a 128-bit **content key**
//! hashing exactly those inputs (via [`rebound_engine::ContentHasher`]),
//! so `rebound-campaign --store DIR` recomputes only cache misses and a
//! warm rerun of an unchanged matrix recomputes nothing, while producing
//! a CSV byte-identical to the cold run's.
//!
//! What is *not* in the key, deliberately:
//!
//! * the job id and the fault plan's family name — presentation; the CSV
//!   renders them from the live [`Job`], so re-labelling a plan or
//!   reordering a spec never invalidates results;
//! * `--jobs` — the harness guarantees rows are byte-identical for any
//!   worker count, so caching across it is sound (and is tested in
//!   `tests/store_resume.rs`).
//!
//! What *is* in the key beyond the job fields: a **code salt** made of
//! the crate version and [`STORE_SCHEMA_VERSION`]. Bump the schema
//! version whenever simulator behaviour changes in any way that can
//! alter a result row; every key changes and the whole store reads as
//! cold. Stale objects are never deleted — they are simply unreachable
//! (prune the directory when it grows bothersome).
//!
//! # On-disk layout
//!
//! ```text
//! DIR/
//!   tmp/                   staging for atomic writes
//!   ab/                    first two hex chars of the key
//!     ab…30-more-hex.row     header line + one CSV-framed record
//!     cd…30-more-hex.golden  header line + a golden snapshot
//! ```
//!
//! Writes go to `DIR/tmp/` and `rename(2)` into place — atomic on POSIX,
//! so a killed campaign can never leave a torn object; the next run
//! either sees the complete row or a miss. Unreadable or corrupt objects
//! (bad header, wrong field count, unparseable number) also read as
//! misses and are overwritten by the recompute — the store self-heals.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rebound_engine::ContentHasher;

use crate::oracle::{GoldenSnapshot, OracleVerdict};
use crate::results::{csv_field, RunRow};
use crate::spec::Job;

/// Version of the store's key derivation + record layout. Bump on any
/// change to simulator behaviour, CSV semantics or this module's codec:
/// every content key changes, so all cached rows are invalidated at once.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Number of fields in a stored record (the run-derived CSV columns).
const RECORD_FIELDS: usize = 18;

/// The code-version salt folded into every content key: crate version
/// plus [`STORE_SCHEMA_VERSION`].
pub fn code_salt() -> String {
    format!(
        "{}+schema{}",
        env!("CARGO_PKG_VERSION"),
        STORE_SCHEMA_VERSION
    )
}

/// Computes the content key of `job` under an explicit `salt` (tests use
/// a custom salt to prove invalidation; production uses [`code_salt`]
/// via [`Store::key`]). 32 hex chars; every *semantic* job field is
/// framed into the hash, presentation fields are excluded (module docs).
pub fn content_key(job: &Job, salt: &str) -> String {
    let mut h = ContentHasher::new();
    h.update_str(salt);
    h.update_str(job.scheme.label());
    h.update_str(&job.app);
    h.update_u64(job.cores as u64);
    h.update_u64(job.seed);
    h.update_str(&job.plan.detail());
    h.update_u64(job.scale.interval);
    h.update_u64(job.scale.quota);
    h.update_u64(job.scale.detect_latency);
    h.update_u64(job.scale.watchdog_cycles);
    h.update_u64(job.oracle as u64);
    h.finish_hex()
}

/// Computes the **golden** content key of `job` under `salt`: the job's
/// *base identity* only — scheme, app, cores, seed, every [`RunScale`]
/// field — behind a domain tag so golden keys can never collide with
/// row keys. Fault-plan detail and the oracle flag are deliberately
/// excluded: a fault-free replay cannot depend on either, and that
/// exclusion is exactly what lets every fault plan of a base config
/// share one stored snapshot (regression-tested as such).
///
/// [`RunScale`]: crate::spec::RunScale
pub fn golden_content_key(job: &Job, salt: &str) -> String {
    let mut h = ContentHasher::new();
    h.update_str("golden");
    h.update_str(salt);
    h.update_str(job.scheme.label());
    h.update_str(&job.app);
    h.update_u64(job.cores as u64);
    h.update_u64(job.seed);
    h.update_u64(job.scale.interval);
    h.update_u64(job.scale.quota);
    h.update_u64(job.scale.detect_latency);
    h.update_u64(job.scale.watchdog_cycles);
    h.finish_hex()
}

/// A content-addressed result store rooted at one directory.
///
/// Cheap to clone conceptually (it is just a path); shared by reference
/// across the worker pool — all methods take `&self` and are safe to
/// call concurrently (distinct keys touch distinct files; same-key
/// racers both write the same bytes and rename atomically).
#[derive(Clone, Debug)]
pub struct Store {
    root: PathBuf,
}

/// Monotonic staging-file discriminator: two workers of this process
/// writing the same key must not collide in `tmp/`.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The two kinds of object a store holds: a result row per job and a
/// golden snapshot per base config. They share the layout, the atomic
/// write and the miss semantics, and differ only in file extension and
/// header line.
#[derive(Clone, Copy)]
enum Kind {
    Row,
    Golden,
}

impl Kind {
    fn extension(self) -> &'static str {
        match self {
            Kind::Row => "row",
            Kind::Golden => "golden",
        }
    }

    /// The first line of every object of this kind.
    fn header(self) -> String {
        match self {
            Kind::Row => format!("rebound-store v{STORE_SCHEMA_VERSION}"),
            Kind::Golden => format!("rebound-store golden v{STORE_SCHEMA_VERSION}"),
        }
    }
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("tmp"))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The content key of `job` under the current code salt.
    pub fn key(&self, job: &Job) -> String {
        content_key(job, &code_salt())
    }

    /// The golden content key of `job` under the current code salt.
    pub fn golden_key(&self, job: &Job) -> String {
        golden_content_key(job, &code_salt())
    }

    fn path(&self, kind: Kind, key: &str) -> PathBuf {
        // Git-style fan-out: 256 prefix dirs keep directory sizes sane
        // for the 10k+-job matrices the store exists to unlock.
        self.root
            .join(&key[..2])
            .join(format!("{}.{}", &key[2..], kind.extension()))
    }

    /// The body of the `kind` object under `key`: everything after its
    /// header line. `None` if the object is absent, unreadable, or has
    /// another header.
    fn read(&self, kind: Kind, key: &str) -> Option<String> {
        let mut text = fs::read_to_string(self.path(kind, key)).ok()?;
        let (header, _) = text.split_once('\n')?;
        if header != kind.header() {
            return None;
        }
        text.drain(..=header.len());
        Some(text)
    }

    /// Atomically writes the `kind` object under `key`: its header line,
    /// then `body`, staged in `tmp/` and renamed into place.
    fn write(&self, kind: Kind, key: &str, body: &str) -> io::Result<()> {
        let path = self.path(kind, key);
        fs::create_dir_all(path.parent().expect("object path has a parent"))?;
        let tmp = self.root.join("tmp").join(format!(
            "{key}.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, format!("{}\n{body}", kind.header()))?;
        fs::rename(&tmp, &path)
    }

    /// Removes the `kind` object under `key`, reporting whether one
    /// existed.
    fn delete(&self, kind: Kind, key: &str) -> io::Result<bool> {
        match fs::remove_file(self.path(kind, key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Loads the row stored under `key`. `None` means miss — absent,
    /// unreadable, or corrupt (the recompute overwrites it).
    pub fn load(&self, key: &str) -> Option<RunRow> {
        let body = self.read(Kind::Row, key)?;
        decode_row(body.strip_suffix('\n').unwrap_or(&body))
    }

    /// Atomically persists `row` under `key` (staging file + rename).
    pub fn save(&self, key: &str, row: &RunRow) -> io::Result<()> {
        self.write(Kind::Row, key, &format!("{}\n", encode_row(row)))
    }

    /// Removes the object stored under `key`, reporting whether one
    /// existed (targeted invalidation; tests salt single jobs this way).
    pub fn remove(&self, key: &str) -> io::Result<bool> {
        self.delete(Kind::Row, key)
    }

    /// Loads the golden snapshot stored under `key`, rebuilding its line
    /// interner from `job`'s base identity. `None` means miss — absent,
    /// unreadable, truncated, or corrupt; the recompute overwrites it.
    pub fn load_golden(&self, key: &str, job: &Job) -> Option<GoldenSnapshot> {
        decode_golden(&self.read(Kind::Golden, key)?, &job.app, job.cores)
    }

    /// Atomically persists a golden snapshot under `key`.
    pub fn save_golden(&self, key: &str, snap: &GoldenSnapshot) -> io::Result<()> {
        self.write(Kind::Golden, key, &encode_golden(snap))
    }

    /// Removes the golden object under `key`, reporting whether one
    /// existed.
    pub fn remove_golden(&self, key: &str) -> io::Result<bool> {
        self.delete(Kind::Golden, key)
    }
}

/// Encodes a golden snapshot: one CSV-framed scalar record (termination
/// state, committed-work totals, report scalars, line count), one
/// `addr,value` line per captured data line in capture order, and an
/// `end` sentinel whose absence betrays a truncated object. The stuck
/// diagnosis is a `Debug` rendering and therefore never contains a raw
/// newline; the CSV framing covers everything else it might carry.
pub fn encode_golden(snap: &GoldenSnapshot) -> String {
    let [insts, stores, cycles, checkpoints, rollbacks, msgs_total] = snap.scalars();
    let head = [
        if snap.is_clean() { "clean" } else { "stuck" }.to_string(),
        snap.stuck_reason().unwrap_or("").to_string(),
        insts.to_string(),
        stores.to_string(),
        cycles.to_string(),
        checkpoints.to_string(),
        rollbacks.to_string(),
        msgs_total.to_string(),
        snap.line_count().to_string(),
    ];
    let mut out = encode_record(&head);
    out.push('\n');
    snap.for_each_line(|addr, v| {
        out.push_str(&format!("{},{}\n", addr.raw(), v));
    });
    out.push_str("end\n");
    out
}

/// Number of fields in a golden object's scalar record.
const GOLDEN_HEAD_FIELDS: usize = 9;

/// Decodes a golden object body produced by [`encode_golden`]. `None`
/// on any malformation: wrong field count, unparseable number, declared
/// line count not matching the entries present, missing `end` sentinel
/// (truncation), trailing garbage, or an entry set the interner for
/// `(app, cores)` rejects (duplicate or sync-line address).
pub fn decode_golden(body: &str, app: &str, cores: usize) -> Option<GoldenSnapshot> {
    let mut lines = body.lines();
    let head = decode_record(lines.next()?)?;
    if head.len() != GOLDEN_HEAD_FIELDS {
        return None;
    }
    let end = match head[0].as_str() {
        "clean" if head[1].is_empty() => None,
        "stuck" => Some(head[1].clone()),
        _ => return None,
    };
    let num = |s: &str| s.parse::<u64>().ok();
    let scalars = [
        num(&head[2])?,
        num(&head[3])?,
        num(&head[4])?,
        num(&head[5])?,
        num(&head[6])?,
        num(&head[7])?,
    ];
    let n = num(&head[8])? as usize;
    // Pre-reserving from an attacker-controlled count would let a
    // corrupt header allocate unboundedly; collect entry by entry and
    // let the count check below do the policing.
    let mut entries = Vec::new();
    for _ in 0..n {
        let (a, v) = lines.next()?.split_once(',')?;
        entries.push((num(a)?, num(v)?));
    }
    if lines.next() != Some("end") || lines.next().is_some() {
        return None;
    }
    GoldenSnapshot::from_parts(app, cores, end, scalars, entries)
}

/// Encodes `row` as one CSV-framed record (same quoting rules as the
/// emitted CSV, so anything a CSV cell can carry — commas, quotes,
/// newlines, control characters — round-trips byte-identically).
pub fn encode_row(row: &RunRow) -> String {
    let detail = match &row.verdict {
        OracleVerdict::Fail(d) => d.clone(),
        _ => String::new(),
    };
    let fields = [
        row.fired.clone(),
        row.cycles.to_string(),
        row.insts.to_string(),
        row.checkpoints.to_string(),
        row.rollbacks.to_string(),
        row.msgs.to_string(),
        row.log_entries.to_string(),
        row.log_peak_bytes.to_string(),
        row.stall_sync.to_string(),
        row.stall_wb.to_string(),
        row.stall_imbalance.to_string(),
        row.stall_ipc.to_string(),
        row.stall_total.to_string(),
        row.recovery_cycles.to_string(),
        row.ichk_pct.clone(),
        row.verdict.tag().to_string(),
        row.checks.clone(),
        detail,
    ];
    encode_record(&fields)
}

/// Decodes a record produced by [`encode_row`]. `None` on any
/// malformation (wrong field count, unparseable number, unknown verdict
/// tag) — the store treats that as a miss.
pub fn decode_row(s: &str) -> Option<RunRow> {
    let fields = decode_record(s)?;
    if fields.len() != RECORD_FIELDS {
        return None;
    }
    let num = |i: usize| fields[i].parse::<u64>().ok();
    Some(RunRow {
        fired: fields[0].clone(),
        cycles: num(1)?,
        insts: num(2)?,
        checkpoints: num(3)?,
        rollbacks: num(4)?,
        msgs: num(5)?,
        log_entries: num(6)?,
        log_peak_bytes: num(7)?,
        stall_sync: num(8)?,
        stall_wb: num(9)?,
        stall_imbalance: num(10)?,
        stall_ipc: num(11)?,
        stall_total: num(12)?,
        recovery_cycles: num(13)?,
        ichk_pct: fields[14].clone(),
        verdict: OracleVerdict::from_tag(&fields[15], &fields[17])?,
        checks: fields[16].clone(),
    })
}

/// Joins fields into one CSV record using the emitters' quoting rules.
pub fn encode_record(fields: &[String]) -> String {
    fields
        .iter()
        .map(|f| csv_field(f))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses one CSV record (the inverse of [`encode_record`]): fields
/// separated by commas, quoted fields may contain commas, doubled
/// quotes, newlines and any control character. `None` on malformed
/// input (unterminated quote, text after a closing quote, a bare quote
/// inside an unquoted field).
pub fn decode_record(s: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        let mut cur = String::new();
        let quoted = chars.peek() == Some(&'"');
        if quoted {
            chars.next();
            loop {
                match chars.next()? {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        cur.push('"');
                    }
                    '"' => break,
                    c => cur.push(c),
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                match c {
                    ',' => break,
                    '"' => return None,
                    _ => {
                        cur.push(c);
                        chars.next();
                    }
                }
            }
        }
        fields.push(cur);
        match chars.next() {
            Some(',') => continue,
            None => return Some(fields),
            Some(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, FaultPlan, RunScale};

    fn sample_row(verdict: OracleVerdict, detail_in_checks: &str) -> RunRow {
        RunRow {
            fired: "f1@30000".to_string(),
            cycles: 123_456,
            insts: 24_000,
            checkpoints: 7,
            rollbacks: 1,
            msgs: 9_001,
            log_entries: 42,
            log_peak_bytes: 4_096,
            stall_sync: 100,
            stall_wb: 200,
            stall_imbalance: 300,
            stall_ipc: 400,
            stall_total: 1_000,
            recovery_cycles: 555,
            ichk_pct: "12.345".to_string(),
            verdict,
            checks: detail_in_checks.to_string(),
        }
    }

    #[test]
    fn record_codec_round_trips_hostile_fields() {
        let cases: Vec<Vec<String>> = vec![
            vec!["plain".into(), String::new(), "with,comma".into()],
            vec!["say \"hi\"".into(), "line\nbreak".into(), "cr\rhere".into()],
            vec!["\u{1}\u{2}\u{3}".into(), "tab\there".into()],
            vec![String::new()],
            vec!["trailing".into(), String::new()],
        ];
        for fields in cases {
            let enc = encode_record(&fields);
            assert_eq!(
                decode_record(&enc).as_ref(),
                Some(&fields),
                "record {enc:?} failed to round-trip"
            );
        }
    }

    #[test]
    fn malformed_records_decode_to_none() {
        for bad in [
            "\"unterminated",
            "\"closed\"junk",
            "bare\"quote",
            "\"a\"b,c",
        ] {
            assert_eq!(decode_record(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn row_codec_round_trips_every_verdict() {
        let verdicts = [
            OracleVerdict::Pass,
            OracleVerdict::NotApplicable,
            OracleVerdict::Vacuous,
            OracleVerdict::Fail("data diverged: L0x40, faulty 0x1 vs \"golden\"\n0x2".to_string()),
        ];
        for v in verdicts {
            let row = sample_row(v, "termination+rollback+memory");
            let enc = encode_row(&row);
            assert_eq!(decode_row(&enc).as_ref(), Some(&row), "{enc:?}");
        }
    }

    #[test]
    fn corrupt_rows_read_as_misses() {
        let row = sample_row(OracleVerdict::Pass, "termination");
        let enc = encode_row(&row);
        // Too few fields.
        assert_eq!(decode_row("a,b,c"), None);
        // Unparseable number.
        assert_eq!(decode_row(&enc.replace("123456", "xyz")), None);
        // Unknown verdict tag.
        assert_eq!(decode_row(&enc.replace("pass", "maybe")), None);
    }

    fn jobs_for_keys() -> Vec<crate::spec::Job> {
        CampaignSpec::smoke().expand()
    }

    #[test]
    fn content_keys_are_stable_and_distinct_per_job() {
        let jobs = jobs_for_keys();
        let keys: Vec<String> = jobs.iter().map(|j| content_key(j, "salt")).collect();
        // Stable across recomputation.
        for (j, k) in jobs.iter().zip(&keys) {
            assert_eq!(&content_key(j, "salt"), k);
            assert_eq!(k.len(), 32);
        }
        // Distinct across the matrix.
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "key collision inside one spec");
    }

    #[test]
    fn key_changes_with_seed_plan_scale_oracle_and_salt() {
        let base = jobs_for_keys().remove(0);
        let k = |j: &crate::spec::Job| content_key(j, "salt");
        let base_key = k(&base);

        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(k(&seed), base_key, "seed must be in the key");

        let mut plan = base.clone();
        plan.plan = FaultPlan::single(2, 19_000);
        assert_ne!(k(&plan), base_key, "fault-plan detail must be in the key");

        let mut scale = base.clone();
        scale.scale = RunScale::tiny();
        assert_ne!(k(&scale), base_key, "run scale must be in the key");

        let mut oracle = base.clone();
        oracle.oracle = !oracle.oracle;
        assert_ne!(k(&oracle), base_key, "oracle flag must be in the key");

        assert_ne!(
            content_key(&base, "other-salt"),
            base_key,
            "schema/code salt must be in the key"
        );

        // Presentation-only fields are NOT in the key: renaming a plan
        // family or renumbering jobs must not invalidate the store.
        let mut renamed = base.clone();
        renamed.id += 100;
        renamed.plan = renamed.plan.clone().named("renamed-family");
        assert_eq!(k(&renamed), base_key);
    }

    #[test]
    fn golden_key_ignores_plan_oracle_and_presentation() {
        let base = jobs_for_keys().remove(0);
        let k = |j: &crate::spec::Job| golden_content_key(j, "salt");
        let base_key = k(&base);
        assert_eq!(base_key.len(), 32);
        assert_ne!(
            base_key,
            content_key(&base, "salt"),
            "golden keys live in their own domain"
        );

        // A golden run cannot see the fault plan or the oracle flag:
        // every fault plan of a base config must share one key.
        let mut plan = base.clone();
        plan.plan = FaultPlan::single(2, 19_000).named("renamed");
        plan.id += 100;
        assert_eq!(k(&plan), base_key);
        let mut oracle = base.clone();
        oracle.oracle = !oracle.oracle;
        assert_eq!(k(&oracle), base_key);

        // Base-identity fields and the code salt must all be in the key.
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(k(&seed), base_key);
        let mut cores = base.clone();
        cores.cores *= 2;
        assert_ne!(k(&cores), base_key);
        let mut app = base.clone();
        app.app = "FFT".to_string();
        assert_ne!(k(&app), base_key);
        let mut scale = base.clone();
        scale.scale = RunScale::tiny();
        assert_ne!(k(&scale), base_key);
        assert_ne!(golden_content_key(&base, "other-salt"), base_key);
    }

    #[test]
    fn golden_save_load_round_trip_and_corruption_misses() {
        let dir = std::env::temp_dir().join(format!(
            "rebound-golden-unit-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Store::open(&dir).expect("open");
        let job = jobs_for_keys().remove(0);
        let key = store.golden_key(&job);
        assert!(store.load_golden(&key, &job).is_none(), "fresh store cold");

        let snap = GoldenSnapshot::capture(&job);
        assert!(snap.is_clean() && snap.line_count() > 0);
        store.save_golden(&key, &snap).expect("save");
        assert_eq!(store.load_golden(&key, &job), Some(snap.clone()));

        // Truncation (missing sentinel) reads as a miss.
        let enc = encode_golden(&snap);
        let path = store.path(Kind::Golden, &key);
        let header = format!("rebound-store golden v{STORE_SCHEMA_VERSION}\n");
        let truncated = &enc[..enc.len() - "end\n".len() - 3];
        fs::write(&path, format!("{header}{truncated}")).unwrap();
        assert!(store.load_golden(&key, &job).is_none());

        // Wrong header version reads as a miss.
        fs::write(&path, format!("rebound-store golden v999\n{enc}")).unwrap();
        assert!(store.load_golden(&key, &job).is_none());

        // Self-heal: a fresh save over the corpse round-trips again.
        store.save_golden(&key, &snap).expect("re-save");
        assert_eq!(store.load_golden(&key, &job), Some(snap));
        assert!(store.remove_golden(&key).expect("remove"));
        assert!(!store.remove_golden(&key).expect("second remove"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_save_load_remove_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "rebound-store-unit-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Store::open(&dir).expect("open");
        let job = jobs_for_keys().remove(1);
        let key = store.key(&job);
        assert_eq!(store.load(&key), None, "fresh store is cold");

        let row = sample_row(OracleVerdict::Pass, "termination+rollback");
        store.save(&key, &row).expect("save");
        assert_eq!(store.load(&key), Some(row.clone()));

        // Overwrite is fine (same bytes or newer result).
        store.save(&key, &row).expect("re-save");
        assert_eq!(store.load(&key), Some(row));

        // A corrupt object reads as a miss.
        let path = store.path(Kind::Row, &key);
        fs::write(&path, "rebound-store v999\ngarbage").unwrap();
        assert_eq!(store.load(&key), None);

        assert!(store.remove(&key).expect("remove"));
        assert!(!store.remove(&key).expect("second remove"));
        assert_eq!(store.load(&key), None);

        fs::remove_dir_all(&dir).ok();
    }
}
