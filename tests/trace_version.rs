//! Cross-crate consequences of bumping the on-disk trace format version
//! ([`fg_stp_repro::tracefile::VERSION`]).
//!
//! The version threads through two identity schemes that must both roll
//! over together on a format bump:
//!
//! * the on-disk cache embeds it in every file name, so files written by
//!   a pre-bump build are orphaned (a clean miss + re-trace), never
//!   misread, and
//! * [`ExperimentSpec::dedup_key`] prefixes it onto every job identity,
//!   so a post-bump `fgstpd` daemon never serves cached rows keyed by a
//!   pre-bump submission.

use fg_stp_repro::prelude::*;
use fg_stp_repro::service::JobQueue;
use fg_stp_repro::tracefile::VERSION;
use fg_stp_repro::workloads::by_name;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-vtest-{tag}-{}", std::process::id()))
}

/// A cache file stamped with an older format version in its name is
/// invisible to the current build: the session re-traces (miss), stores a
/// fresh current-version file alongside, and never opens the old one.
#[test]
fn version_bump_orphans_old_cache_files() {
    let dir = temp_dir("orphan");
    let _ = std::fs::remove_dir_all(&dir);
    let w = by_name("gcc_expr", Scale::Test).unwrap();

    let writer = Session::new().scale(Scale::Test).cache_dir(&dir);
    let cold = writer.trace(&w);
    let current = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .next()
        .expect("one cache file");
    let name = current.file_name().unwrap().to_str().unwrap().to_owned();
    assert!(
        name.ends_with(&format!("-v{VERSION}.fgtr")),
        "cache file carries the current format version: {name}"
    );

    // Re-stamp the file as the previous format version — byte-identical
    // payload, pre-bump name — as if it were left behind by an older
    // build whose VERSION was one lower.
    let old = current.with_file_name(name.replace(
        &format!("-v{VERSION}.fgtr"),
        &format!("-v{}.fgtr", VERSION - 1),
    ));
    std::fs::rename(&current, &old).unwrap();

    let reader = Session::new().scale(Scale::Test).cache_dir(&dir);
    let retraced = reader.trace(&w);
    assert_eq!(
        reader.cache_stats(),
        CacheStats { hits: 0, misses: 1 },
        "a pre-bump file must read as a miss, not a hit"
    );
    assert_eq!(cold, retraced);
    assert!(
        current.exists(),
        "the miss re-stored a current-version file"
    );
    assert!(old.exists(), "the orphaned file is ignored, not deleted");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cache file names lead with the frontend — `syn-` for SimRISC kernels,
/// `rv<translation-version>-` for RV32 programs — so traces produced by
/// different frontends (or different translation schemes) can never
/// collide, and both frontends hit their own files on a warm re-read.
#[test]
fn cache_file_identity_separates_frontends() {
    let dir = temp_dir("frontend");
    let _ = std::fs::remove_dir_all(&dir);
    let syn = by_name("gcc_expr", Scale::Test).unwrap();
    let rv = by_name("rv:crc32", Scale::Test).unwrap();

    let writer = Session::new().scale(Scale::Test).cache_dir(&dir);
    let syn_trace = writer.trace(&syn);
    let rv_trace = writer.trace(&rv);
    assert_eq!(writer.cache_stats(), CacheStats { hits: 0, misses: 2 });

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().to_owned())
        .collect();
    assert_eq!(names.len(), 2, "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("syn-gcc_expr-")),
        "synthetic trace file carries the syn prefix: {names:?}"
    );
    let rv_prefix = format!("rv{}-rv_crc32-", fg_stp_repro::rv::TRANSLATION_VERSION);
    assert!(
        names.iter().any(|n| n.starts_with(&rv_prefix)),
        "RV trace file carries the translation-versioned prefix: {names:?}"
    );

    let reader = Session::new().scale(Scale::Test).cache_dir(&dir);
    assert_eq!(reader.trace(&syn), syn_trace);
    assert_eq!(reader.trace(&rv), rv_trace);
    assert_eq!(
        reader.cache_stats(),
        CacheStats { hits: 2, misses: 0 },
        "both frontends hit their own files"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The service queue's dedup identity is the spec's `dedup_key`, and that
/// key is versioned by the trace format: equal specs dedup to one job,
/// while the same spec keyed by a different format version can never
/// collide with it.
#[test]
fn queue_dedup_is_keyed_by_the_versioned_spec_identity() {
    let spec = ExperimentSpec::from_args(&["test", "--workloads=perl_hash"]).unwrap();
    let key = spec.dedup_key();
    let prefix = format!(
        "fgtr-v{VERSION}-rv{}:",
        fg_stp_repro::rv::TRANSLATION_VERSION
    );
    assert!(
        key.starts_with(&prefix),
        "dedup key is versioned by the trace and RV translation formats: {key}"
    );

    // Same spec, same build: the queue returns the first job instead of
    // enqueueing a copy.
    let queue = JobQueue::with_capacity(8);
    let (id_first, deduped_first) = queue.submit(spec.clone()).unwrap();
    assert!(!deduped_first);
    let (id_again, deduped_again) = queue.submit(spec.clone()).unwrap();
    assert!(deduped_again, "identical spec dedups against the live job");
    assert_eq!(id_first, id_again);

    // A pre-bump build computes the same spec body under the previous
    // version prefix. The queue's dedup map is keyed on the full string,
    // so the old and new identities are distinct — a format bump re-keys
    // every job, exactly like it re-keys the cache files. The same holds
    // for a translation-scheme bump on the RV side of the prefix.
    let body = &key[prefix.len()..];
    let old_key = format!(
        "fgtr-v{}-rv{}:{body}",
        VERSION - 1,
        fg_stp_repro::rv::TRANSLATION_VERSION
    );
    assert_ne!(old_key, key);
    let old_rv_key = format!(
        "fgtr-v{VERSION}-rv{}:{body}",
        fg_stp_repro::rv::TRANSLATION_VERSION + 1
    );
    assert_ne!(old_rv_key, key);

    // Distinct spec bodies stay distinct jobs under the same version.
    let other = ExperimentSpec::from_args(&["test", "--workloads=hmmer_dp"]).unwrap();
    let (id_other, deduped_other) = queue.submit(other).unwrap();
    assert!(!deduped_other);
    assert_ne!(id_first, id_other);
}
