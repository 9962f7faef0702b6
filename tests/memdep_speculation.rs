//! Integration: cross-core memory-dependence speculation end to end.
//!
//! A tight store→load pair forced onto opposite cores must (a) be detected
//! as a cross memory dependence, (b) violate and replay under speculation,
//! (c) never violate under the conservative policy, and (d) still compute
//! the right answer either way.

use fg_stp_repro::core::{FgstpConfig, PartitionPolicy};
use fg_stp_repro::prelude::*;

const TIGHT_RAW: &str = r#"
    li x1, 0x1000
    li x9, 200
loop:
    sd   x9, 0(x1)
    ld   x5, 0(x1)
    add  x6, x5, x5
    addi x9, x9, -1
    bne  x9, x0, loop
    halt
"#;

fn forced_config(dep_speculation: bool) -> FgstpConfig {
    let mut cfg = FgstpConfig::small();
    cfg.partition.policy = PartitionPolicy::ModN { chunk: 1 };
    cfg.partition.replication = false;
    cfg.dep_speculation = dep_speculation;
    cfg
}

#[test]
fn speculation_violates_and_replays_on_tight_cross_raw() {
    let p = assemble(TIGHT_RAW).unwrap();
    let t = trace_program(&p, 100_000).unwrap();
    let (r, s) = forced_config(true).run_cold(t.insts(), &HierarchyConfig::small(2));
    assert_eq!(r.committed, t.len() as u64);
    assert!(
        s.partition.cross_mem_deps > 0,
        "mod-1 must split the store/load pair"
    );
    assert!(
        s.cross_violations > 0,
        "a tight cross-core RAW must violate under speculation"
    );
    assert!(s.cross_violations <= s.partition.cross_mem_deps);
}

#[test]
fn conservative_mode_never_violates() {
    let p = assemble(TIGHT_RAW).unwrap();
    let t = trace_program(&p, 100_000).unwrap();
    let (r, s) = forced_config(false).run_cold(t.insts(), &HierarchyConfig::small(2));
    assert_eq!(r.committed, t.len() as u64);
    assert_eq!(s.cross_violations, 0);
}

#[test]
fn fgstp_default_partition_avoids_the_split_entirely() {
    // The slice-lookahead partitioner sees the memory dependence edge and
    // keeps the pair on one core: no cross memory deps, no violations.
    let p = assemble(TIGHT_RAW).unwrap();
    let t = trace_program(&p, 100_000).unwrap();
    let (_, s) = FgstpConfig::small().run_cold(t.insts(), &HierarchyConfig::small(2));
    assert_eq!(
        s.partition.cross_mem_deps, 0,
        "partitioner should co-locate the RAW pair"
    );
    assert_eq!(s.cross_violations, 0);
}

#[test]
fn speculation_wins_when_the_dependence_is_distant() {
    // Producer writes a buffer, consumer reads it a full pass later: the
    // conservative barrier serializes passes, speculation does not.
    let src = r#"
        li x1, 0x1000
        li x9, 40         # passes
    pass:
        li x2, 0          # i
        li x3, 512
    wloop:
        add  x4, x1, x2
        sd   x2, 0(x4)
        addi x2, x2, 8
        bne  x2, x3, wloop
        li x2, 0
    rloop:
        add  x4, x1, x2
        ld   x5, 0(x4)
        add  x6, x6, x5
        addi x2, x2, 8
        bne  x2, x3, rloop
        addi x9, x9, -1
        bne  x9, x0, pass
        halt
    "#;
    let p = assemble(src).unwrap();
    let t = trace_program(&p, 400_000).unwrap();
    let mut spec_cfg = forced_config(true);
    spec_cfg.partition.policy = PartitionPolicy::ModN { chunk: 8 };
    let mut cons_cfg = forced_config(false);
    cons_cfg.partition.policy = PartitionPolicy::ModN { chunk: 8 };
    let (spec, _) = spec_cfg.run_cold(t.insts(), &HierarchyConfig::small(2));
    let (cons, _) = cons_cfg.run_cold(t.insts(), &HierarchyConfig::small(2));
    assert!(
        spec.cycles <= cons.cycles,
        "speculation must not lose: spec {} vs conservative {}",
        spec.cycles,
        cons.cycles
    );
}
