//! Direction predictors: bimodal, gshare, and a tournament combiner.

use std::fmt;

use crate::codec::{put_bytes, put_u64, take_bytes_exact, take_u64};

/// A conditional-branch direction predictor.
///
/// `predict` must not change predictor state; `update` trains with the
/// resolved outcome. The timing models call `predict` at fetch and `update`
/// at commit, in program order.
///
/// Predictors are snapshottable for checkpointed sampling: `save_state`
/// serializes the trained tables, `load_state` restores them into a
/// predictor *of the same shape* (same [`PredictorKind`], same index
/// bits). A shape mismatch is reported as an `Err`, never a panic.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&self, pc: u64) -> bool;

    /// Trains with the resolved direction of the branch at `pc`.
    fn update(&mut self, pc: u64, taken: bool);

    /// Appends the trained state (tables and history) to `out`.
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores state written by [`save_state`](Self::save_state) on a
    /// same-shape predictor, consuming it from the front of `bytes`. On
    /// error the predictor's state is unspecified — discard it.
    fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String>;
}

/// Saturating 2-bit counter helpers.
#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

#[inline]
fn counter_train(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

/// Classic bimodal predictor: a PC-indexed table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<u8>,
}

impl Bimodal {
    /// Creates a predictor with `2^index_bits` counters, initialized to
    /// weakly taken (the common initialization for loop-heavy codes).
    pub fn new(index_bits: u32) -> Bimodal {
        Bimodal {
            counters: vec![2; 1 << index_bits],
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.counters.len() - 1)
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: u64) -> bool {
        counter_taken(self.counters[self.index(pc)])
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.counters[i] = counter_train(self.counters[i], taken);
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.counters);
    }

    fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        let n = self.counters.len();
        self.counters.copy_from_slice(take_bytes_exact(bytes, n)?);
        Ok(())
    }
}

/// Gshare: global history XOR PC indexing into 2-bit counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `2^index_bits` counters and `index_bits`
    /// bits of global history.
    pub fn new(index_bits: u32) -> Gshare {
        Gshare {
            counters: vec![2; 1 << index_bits],
            history: 0,
            history_mask: (1u64 << index_bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc ^ self.history) & self.history_mask) as usize) & (self.counters.len() - 1)
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: u64) -> bool {
        counter_taken(self.counters[self.index(pc)])
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.counters[i] = counter_train(self.counters[i], taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.counters);
        put_u64(out, self.history);
    }

    fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        let n = self.counters.len();
        self.counters.copy_from_slice(take_bytes_exact(bytes, n)?);
        self.history = take_u64(bytes)? & self.history_mask;
        Ok(())
    }
}

/// Tournament predictor: bimodal and gshare components with a PC-indexed
/// chooser trained toward whichever component was right.
#[derive(Debug, Clone)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: Gshare,
    chooser: Vec<u8>, // 0..=3; >=2 selects gshare
}

impl Tournament {
    /// Creates a tournament predictor; each component gets `index_bits`.
    pub fn new(index_bits: u32) -> Tournament {
        Tournament {
            bimodal: Bimodal::new(index_bits),
            gshare: Gshare::new(index_bits),
            chooser: vec![2; 1 << index_bits],
        }
    }

    fn choose_index(&self, pc: u64) -> usize {
        (pc as usize) & (self.chooser.len() - 1)
    }
}

impl DirectionPredictor for Tournament {
    fn predict(&self, pc: u64) -> bool {
        if counter_taken(self.chooser[self.choose_index(pc)]) {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let b = self.bimodal.predict(pc);
        let g = self.gshare.predict(pc);
        if b != g {
            let i = self.choose_index(pc);
            self.chooser[i] = counter_train(self.chooser[i], g == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.bimodal.save_state(out);
        self.gshare.save_state(out);
        put_bytes(out, &self.chooser);
    }

    fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        self.bimodal.load_state(bytes)?;
        self.gshare.load_state(bytes)?;
        let n = self.chooser.len();
        self.chooser.copy_from_slice(take_bytes_exact(bytes, n)?);
        Ok(())
    }
}

/// Selects a direction predictor by name; used by core configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// [`Bimodal`] with the given index bits.
    Bimodal(u32),
    /// [`Gshare`] with the given index bits.
    Gshare(u32),
    /// [`Tournament`] with the given per-component index bits.
    Tournament(u32),
}

impl PredictorKind {
    /// Instantiates the predictor.
    pub fn build(self) -> Box<dyn DirectionPredictor> {
        match self {
            PredictorKind::Bimodal(bits) => Box::new(Bimodal::new(bits)),
            PredictorKind::Gshare(bits) => Box::new(Gshare::new(bits)),
            PredictorKind::Tournament(bits) => Box::new(Tournament::new(bits)),
        }
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorKind::Bimodal(b) => write!(f, "bimodal({b}b)"),
            PredictorKind::Gshare(b) => write!(f, "gshare({b}b)"),
            PredictorKind::Tournament(b) => write!(f, "tournament({b}b)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(p: &mut dyn DirectionPredictor, stream: &[(u64, bool)]) -> f64 {
        let mut correct = 0;
        for &(pc, taken) in stream {
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        correct as f64 / stream.len() as f64
    }

    /// A loop branch taken `n-1` of every `n` times.
    fn loop_stream(pc: u64, n: usize, iters: usize) -> Vec<(u64, bool)> {
        let mut v = Vec::new();
        for _ in 0..iters {
            for i in 0..n {
                v.push((pc, i != n - 1));
            }
        }
        v
    }

    /// A branch alternating T/N — predictable only with history.
    fn alternating_stream(pc: u64, len: usize) -> Vec<(u64, bool)> {
        (0..len).map(|i| (pc, i % 2 == 0)).collect()
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut p = Bimodal::new(10);
        let acc = accuracy(&mut p, &loop_stream(0x10, 100, 20));
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn bimodal_cannot_learn_alternation() {
        let mut p = Bimodal::new(10);
        let acc = accuracy(&mut p, &alternating_stream(0x10, 1000));
        assert!(acc < 0.7, "bimodal should fail on alternation, got {acc}");
    }

    #[test]
    fn gshare_learns_alternation() {
        let mut p = Gshare::new(10);
        let acc = accuracy(&mut p, &alternating_stream(0x10, 1000));
        assert!(acc > 0.95, "gshare should learn alternation, got {acc}");
    }

    #[test]
    fn tournament_matches_best_component() {
        // Mixed stream: biased branch + alternating branch.
        let mut stream = Vec::new();
        for i in 0..2000 {
            stream.push((0x10, true)); // always taken
            stream.push((0x20, i % 2 == 0)); // alternating
        }
        let mut t = Tournament::new(12);
        let acc = accuracy(&mut t, &stream);
        assert!(acc > 0.93, "tournament accuracy {acc}");
    }

    #[test]
    fn predict_is_pure() {
        let p = Gshare::new(8);
        let a = p.predict(0x44);
        let b = p.predict(0x44);
        assert_eq!(a, b);
    }

    #[test]
    fn kind_builds_each_variant() {
        for kind in [
            PredictorKind::Bimodal(8),
            PredictorKind::Gshare(8),
            PredictorKind::Tournament(8),
        ] {
            let mut p = kind.build();
            p.update(0x8, true);
            let _ = p.predict(0x8);
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn state_round_trips_through_bytes_for_every_kind() {
        for kind in [
            PredictorKind::Bimodal(8),
            PredictorKind::Gshare(8),
            PredictorKind::Tournament(8),
        ] {
            let mut trained = kind.build();
            for (i, &(pc, t)) in loop_stream(0x30, 7, 40).iter().enumerate() {
                trained.update(pc, t);
                trained.update(0x90 + i as u64, i % 3 == 0);
            }
            let mut bytes = Vec::new();
            trained.save_state(&mut bytes);
            let mut restored = kind.build();
            let mut r = bytes.as_slice();
            restored.load_state(&mut r).unwrap();
            assert!(r.is_empty(), "load consumes exactly what save wrote");
            // Behavioural identity: same predictions, same evolution.
            for &(pc, t) in &alternating_stream(0x30, 64) {
                assert_eq!(restored.predict(pc), trained.predict(pc), "{kind}");
                restored.update(pc, t);
                trained.update(pc, t);
            }
        }
    }

    #[test]
    fn state_load_rejects_wrong_shape() {
        let mut bytes = Vec::new();
        Bimodal::new(8).save_state(&mut bytes);
        let mut small = Bimodal::new(6);
        assert!(small.load_state(&mut bytes.as_slice()).is_err());
        let mut truncated = &bytes[..bytes.len() - 1];
        assert!(Bimodal::new(8).load_state(&mut truncated).is_err());
    }

    #[test]
    fn distinct_pcs_do_not_interfere_in_bimodal() {
        let mut p = Bimodal::new(12);
        for _ in 0..10 {
            p.update(0x100, true);
            p.update(0x200, false);
        }
        assert!(p.predict(0x100));
        assert!(!p.predict(0x200));
    }
}
