//! End-to-end trace-cache behaviour through the public `Session` API:
//! cold miss → file written → warm hit → corrupt file falls back to
//! re-tracing (and heals the cache).

use fg_stp_repro::prelude::*;
use fg_stp_repro::workloads::by_name;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-itest-{tag}-{}", std::process::id()))
}

#[test]
fn cache_round_trip_and_corruption_fallback() {
    let dir = temp_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let w = by_name("gcc_expr", Scale::Test).unwrap();

    // Cold: miss, trace, store.
    let session = Session::new().scale(Scale::Test).cache_dir(&dir);
    let cold = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 0, misses: 1 });
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir was created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one cache file per (workload, scale)");
    let cache_file = &files[0];
    let name = cache_file.file_name().unwrap().to_str().unwrap();
    assert!(
        name.starts_with("syn-gcc_expr-test-v") && name.ends_with(".fgtr"),
        "key is frontend + workload + scale + format version: {name}"
    );

    // Warm: hit, identical trace.
    let warm = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 1, misses: 1 });
    assert_eq!(cold, warm, "decoded trace is bit-identical");

    // Corrupt the stored payload: the next read must detect it (checksum),
    // fall back to re-tracing, and still return the right trace.
    let mut bytes = std::fs::read(cache_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(cache_file, &bytes).unwrap();
    let healed = session.trace(&w);
    assert_eq!(
        session.cache_stats(),
        CacheStats { hits: 1, misses: 2 },
        "corrupt file reads as a miss"
    );
    assert_eq!(cold, healed);

    // The fallback re-stored a good file: hits resume.
    let again = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 2, misses: 2 });
    assert_eq!(cold, again);

    // Truncation (a partial write that lost the footer) is also a miss.
    let good = std::fs::read(cache_file).unwrap();
    std::fs::write(cache_file, &good[..4]).unwrap();
    let recovered = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 2, misses: 3 });
    assert_eq!(cold, recovered);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The streaming-read path ([`Session::stream_trace`]) gets the same
/// corruption story as the decode-everything path: a damaged or
/// half-written cache file is detected up front, reads as a miss, and the
/// stream silently comes off a fresh re-trace instead — record for record
/// identical to the cold run.
#[test]
fn streaming_reader_corruption_and_truncation_fall_back() {
    use fg_stp_repro::isa::DynInst;
    use fg_stp_repro::sim::TraceStream;

    let dir = temp_dir("stream");
    let _ = std::fs::remove_dir_all(&dir);
    let w = by_name("gcc_expr", Scale::Test).unwrap();
    let session = Session::new().scale(Scale::Test).cache_dir(&dir);

    // Cold: miss, trace, store; the stream walks the fresh in-memory trace.
    let cold_stream = session.stream_trace(&w).unwrap();
    assert!(matches!(cold_stream, TraceStream::Fresh(_)));
    let cold: Vec<DynInst> = cold_stream.into_iter().collect();
    assert_eq!(session.cache_stats(), CacheStats { hits: 0, misses: 1 });
    assert_eq!(cold.len() as u64, {
        let s = session.stream_trace(&w).unwrap();
        s.total()
    });

    // Warm: the stream decodes straight off the cached bytes,
    // bit-identical to the cold records.
    let warm_stream = session.stream_trace(&w).unwrap();
    assert!(
        matches!(warm_stream, TraceStream::Cached(_)),
        "second open streams from the cache"
    );
    let warm: Vec<DynInst> = warm_stream.into_iter().collect();
    assert_eq!(cold, warm);

    let cache_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "fgtr"))
        .expect("cache file exists");

    // Flip a byte mid-payload (inside a record block): open-time
    // validation must catch it and the stream must fall back to
    // re-tracing rather than yield garbled records.
    let good = std::fs::read(&cache_file).unwrap();
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&cache_file, &corrupt).unwrap();
    let misses_before = session.cache_stats().misses;
    let healed_stream = session.stream_trace(&w).unwrap();
    assert!(
        matches!(healed_stream, TraceStream::Fresh(_)),
        "corrupt bytes must not stream"
    );
    let healed: Vec<DynInst> = healed_stream.into_iter().collect();
    assert_eq!(cold, healed);
    assert_eq!(session.cache_stats().misses, misses_before + 1);

    // The fallback healed the file: streaming hits resume.
    assert!(matches!(
        session.stream_trace(&w).unwrap(),
        TraceStream::Cached(_)
    ));

    // Truncation mid-block (a partial write that lost the tail) is also
    // detected up front and also falls back.
    let good = std::fs::read(&cache_file).unwrap();
    std::fs::write(&cache_file, &good[..good.len() - 7]).unwrap();
    let recovered_stream = session.stream_trace(&w).unwrap();
    assert!(matches!(recovered_stream, TraceStream::Fresh(_)));
    let recovered: Vec<DynInst> = recovered_stream.into_iter().collect();
    assert_eq!(cold, recovered);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sessions_sharing_a_directory_share_the_cache() {
    let dir = temp_dir("shared");
    let _ = std::fs::remove_dir_all(&dir);
    let w = by_name("perl_hash", Scale::Test).unwrap();

    let writer = Session::new().scale(Scale::Test).cache_dir(&dir);
    writer.trace(&w);
    assert_eq!(writer.cache_stats().misses, 1);

    let reader = Session::new().scale(Scale::Test).cache_dir(&dir);
    reader.trace(&w);
    assert_eq!(
        reader.cache_stats(),
        CacheStats { hits: 1, misses: 0 },
        "a fresh session reuses traces stored by an earlier one"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
