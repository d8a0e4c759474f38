//! The loop-distribution scheduling framework.
//!
//! "Loop scheduling framework is implemented modularly such that new
//! scheduling algorithms can be easily added or tweaked" (Section V).
//! The seven algorithms of Table II fall into three families:
//!
//! | family | algorithms | stages |
//! |---|---|---|
//! | chunk scheduling | [`block`], [`chunking`] (dynamic, guided) | 1 / multiple |
//! | analytical modeling | [`model_sched`] (MODEL_1, MODEL_2) | 1 |
//! | sample profiling | [`profile_sched`] (constant, model-sized) | 2 |
//!
//! Each family exposes *pure* planning functions (given device
//! parameters / measured throughputs, produce per-device iteration
//! counts or chunk sizes); the runtime in [`crate::runtime`] drives them
//! against the simulator.
//! CUTOFF device filtering ([`homp_model::cutoff`]) composes with the
//! model and profile families.

pub mod assist;
pub mod block;
pub mod chunking;
pub mod health;
pub mod model_sched;
pub mod profile_sched;

use std::fmt;

/// Default chunk fraction for `SCHED_DYNAMIC` (the paper evaluates 2%).
pub const DEFAULT_DYNAMIC_PCT: f64 = 2.0;
/// Default first-chunk fraction for `SCHED_GUIDED` (paper: 20%).
pub const DEFAULT_GUIDED_PCT: f64 = 20.0;
/// Default stage-1 sample fraction for the profiling algorithms (10%).
pub const DEFAULT_SAMPLE_PCT: f64 = 10.0;
/// Default minimum steal size for `WORK_ASSIST`, as a percentage of the
/// trip count: tails smaller than this are not worth a rescue transfer.
pub const DEFAULT_ASSIST_PCT: f64 = 5.0;

/// A concrete choice of loop-distribution algorithm with its parameters
/// — the lowered form of `dist_schedule(target:[…])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Static even chunking.
    Block,
    /// Dynamic chunking: fixed-size chunks grabbed on completion.
    Dynamic {
        /// Chunk size as a percentage of the trip count, in `(0, 100]`;
        /// rounded to the nearest iteration, at least one.
        chunk_pct: f64,
    },
    /// Guided chunking: geometrically shrinking chunks.
    Guided {
        /// First-chunk size as a percentage of the trip count, in
        /// `(0, 100]`.
        chunk_pct: f64,
    },
    /// Compute-only analytical model.
    Model1 {
        /// CUTOFF ratio in `[0,1)`; `None` disables device filtering.
        cutoff: Option<f64>,
    },
    /// Compute + data-movement analytical model.
    Model2 {
        /// CUTOFF ratio.
        cutoff: Option<f64>,
    },
    /// Two-stage profiling, equal sample sizes in stage 1.
    ProfileConst {
        /// Stage-1 sample size as a percentage of the trip count, in
        /// `(0, 100]`.
        sample_pct: f64,
        /// CUTOFF ratio applied to stage-2 shares.
        cutoff: Option<f64>,
    },
    /// Two-stage profiling, stage-1 sizes chosen by MODEL_2.
    ProfileModel {
        /// Stage-1 total sample percentage, in `(0, 100]`.
        sample_pct: f64,
        /// CUTOFF ratio applied to stage-2 shares.
        cutoff: Option<f64>,
    },
    /// Let the runtime pick via the §VI-D heuristics.
    Auto {
        /// CUTOFF ratio forwarded to the chosen algorithm.
        cutoff: Option<f64>,
    },
    /// Work assisting (ROADMAP item 2): MODEL_2 initial shares, then
    /// devices that drain their share steal the unexecuted tail of the
    /// predicted straggler, moving only the stolen span's bytes.
    WorkAssist {
        /// Smallest stealable tail as a percentage of the trip count, in
        /// `[0, 100]` (0: any tail of at least one iteration).
        min_assist_pct: f64,
        /// CUTOFF ratio applied to the initial shares.
        cutoff: Option<f64>,
    },
}

impl Algorithm {
    /// The seven concrete algorithms with the paper's evaluation
    /// parameters (Table II notation), in table order.
    pub fn paper_suite() -> Vec<Algorithm> {
        vec![
            Algorithm::Block,
            Algorithm::Dynamic { chunk_pct: 2.0 },
            Algorithm::Guided { chunk_pct: 20.0 },
            Algorithm::Model1 { cutoff: None },
            Algorithm::Model2 { cutoff: None },
            Algorithm::ProfileConst { sample_pct: 10.0, cutoff: None },
            Algorithm::ProfileModel { sample_pct: 10.0, cutoff: None },
        ]
    }

    /// Same suite with a CUTOFF ratio applied to the model/profile
    /// algorithms (chunk algorithms ignore CUTOFF, as in the paper).
    pub fn paper_suite_with_cutoff(ratio: f64) -> Vec<Algorithm> {
        vec![
            Algorithm::Block,
            Algorithm::Dynamic { chunk_pct: 2.0 },
            Algorithm::Guided { chunk_pct: 20.0 },
            Algorithm::Model1 { cutoff: Some(ratio) },
            Algorithm::Model2 { cutoff: Some(ratio) },
            Algorithm::ProfileConst { sample_pct: 10.0, cutoff: Some(ratio) },
            Algorithm::ProfileModel { sample_pct: 10.0, cutoff: Some(ratio) },
        ]
    }

    /// The paper's seven algorithms plus the repo's `WORK_ASSIST`
    /// extension, in table order — the grid used by the extended
    /// fig5/fig9 experiments.
    pub fn extended_suite() -> Vec<Algorithm> {
        let mut suite = Algorithm::paper_suite();
        suite.push(Algorithm::WorkAssist { min_assist_pct: DEFAULT_ASSIST_PCT, cutoff: None });
        suite
    }

    /// [`Algorithm::extended_suite`] with a CUTOFF ratio applied to the
    /// algorithms that support it.
    pub fn extended_suite_with_cutoff(ratio: f64) -> Vec<Algorithm> {
        let mut suite = Algorithm::paper_suite_with_cutoff(ratio);
        suite.push(Algorithm::WorkAssist {
            min_assist_pct: DEFAULT_ASSIST_PCT,
            cutoff: Some(ratio),
        });
        suite
    }

    /// Lower a parsed `dist_schedule` kind. `ALIGN` is not an algorithm
    /// (the loop copies an array's distribution) and returns `None`.
    pub fn from_schedule_kind(
        kind: &homp_lang::ScheduleKind,
        cutoff_pct: Option<u64>,
    ) -> Option<Algorithm> {
        use homp_lang::ScheduleKind as K;
        let cutoff = cutoff_pct.map(|c| c as f64 / 100.0);
        Some(match kind {
            K::Block => Algorithm::Block,
            K::Auto => Algorithm::Auto { cutoff },
            K::Align { .. } => return None,
            K::Dynamic { chunk_pct } => Algorithm::Dynamic {
                chunk_pct: chunk_pct.map(|c| c as f64).unwrap_or(DEFAULT_DYNAMIC_PCT),
            },
            K::Guided { chunk_pct } => Algorithm::Guided {
                chunk_pct: chunk_pct.map(|c| c as f64).unwrap_or(DEFAULT_GUIDED_PCT),
            },
            K::Model1 => Algorithm::Model1 { cutoff },
            K::Model2 => Algorithm::Model2 { cutoff },
            K::ProfileAuto { sample_pct } => Algorithm::ProfileConst {
                sample_pct: sample_pct.map(|c| c as f64).unwrap_or(DEFAULT_SAMPLE_PCT),
                cutoff,
            },
            K::ModelProfile { sample_pct } => Algorithm::ProfileModel {
                sample_pct: sample_pct.map(|c| c as f64).unwrap_or(DEFAULT_SAMPLE_PCT),
                cutoff,
            },
            K::WorkAssist { min_pct } => Algorithm::WorkAssist {
                min_assist_pct: min_pct.map(|c| c as f64).unwrap_or(DEFAULT_ASSIST_PCT),
                cutoff,
            },
        })
    }

    /// Whether CUTOFF applies to this algorithm.
    pub fn supports_cutoff(&self) -> bool {
        matches!(
            self,
            Algorithm::Model1 { .. }
                | Algorithm::Model2 { .. }
                | Algorithm::ProfileConst { .. }
                | Algorithm::ProfileModel { .. }
                | Algorithm::Auto { .. }
                | Algorithm::WorkAssist { .. }
        )
    }

    /// The CUTOFF ratio, if set.
    pub fn cutoff(&self) -> Option<f64> {
        match self {
            Algorithm::Model1 { cutoff }
            | Algorithm::Model2 { cutoff }
            | Algorithm::ProfileConst { cutoff, .. }
            | Algorithm::ProfileModel { cutoff, .. }
            | Algorithm::Auto { cutoff }
            | Algorithm::WorkAssist { cutoff, .. } => *cutoff,
            _ => None,
        }
    }

    /// The CUTOFF ratio when it lies outside `[0, 1)`, NaN included.
    /// CUTOFF drops the devices whose predicted share is below the
    /// ratio, and [`homp_model::cutoff::apply_cutoff`] accepts only
    /// ratios in that range.
    pub(crate) fn invalid_cutoff(&self) -> Option<f64> {
        self.cutoff().filter(|r| !(0.0..1.0).contains(r))
    }

    /// The algorithm's scheduling percentage when it lies outside its
    /// range, NaN included, as `(parameter, value)`. `chunk_pct` and
    /// `sample_pct` lie in `(0, 100]`: 0 % would mean one-iteration
    /// chunks or samples, more than 100 % a chunk or sample larger than
    /// the loop. `min_assist_pct` lies in `[0, 100]`: 0 % lets an
    /// assistant steal any tail of at least one iteration.
    pub(crate) fn invalid_pct(&self) -> Option<(&'static str, f64)> {
        let (param, pct, zero_ok) = match *self {
            Algorithm::Dynamic { chunk_pct } | Algorithm::Guided { chunk_pct } => {
                ("chunk_pct", chunk_pct, false)
            }
            Algorithm::ProfileConst { sample_pct, .. }
            | Algorithm::ProfileModel { sample_pct, .. } => ("sample_pct", sample_pct, false),
            Algorithm::WorkAssist { min_assist_pct, .. } => {
                ("min_assist_pct", min_assist_pct, true)
            }
            _ => return None,
        };
        let valid = pct <= 100.0 && (pct > 0.0 || (zero_ok && pct == 0.0));
        (!valid).then_some((param, pct))
    }

    /// Return a copy with the CUTOFF ratio set (no-op for chunk
    /// algorithms, which don't support it).
    pub fn with_cutoff(self, ratio: f64) -> Algorithm {
        match self {
            Algorithm::Model1 { .. } => Algorithm::Model1 { cutoff: Some(ratio) },
            Algorithm::Model2 { .. } => Algorithm::Model2 { cutoff: Some(ratio) },
            Algorithm::ProfileConst { sample_pct, .. } => {
                Algorithm::ProfileConst { sample_pct, cutoff: Some(ratio) }
            }
            Algorithm::ProfileModel { sample_pct, .. } => {
                Algorithm::ProfileModel { sample_pct, cutoff: Some(ratio) }
            }
            Algorithm::Auto { .. } => Algorithm::Auto { cutoff: Some(ratio) },
            Algorithm::WorkAssist { min_assist_pct, .. } => {
                Algorithm::WorkAssist { min_assist_pct, cutoff: Some(ratio) }
            }
            other => other,
        }
    }

    /// A stable lowercase identifier, independent of float formatting —
    /// safe to use as a CSV column key, map key, or golden-file label
    /// where `Display` (the paper's `%`/`,` notation) would be fragile.
    ///
    /// Float parameters are rendered canonically: the shortest decimal
    /// form with `.` replaced by `_` (`2.0` → `2`, `0.15` → `c15` for
    /// cutoffs, which are scaled to percent first).
    pub fn key(&self) -> String {
        fn num(v: f64) -> String {
            // Fixed precision first so float noise (0.15 * 100.0 ==
            // 15.000000000000002) cannot leak into the key.
            let s = format!("{v:.4}");
            s.trim_end_matches('0').trim_end_matches('.').replace('.', "_")
        }
        fn cut(c: &Option<f64>) -> String {
            match c {
                Some(r) => format!("_c{}", num(r * 100.0)),
                None => String::new(),
            }
        }
        match self {
            Algorithm::Block => "block".into(),
            Algorithm::Dynamic { chunk_pct } => format!("sched_dynamic_{}", num(*chunk_pct)),
            Algorithm::Guided { chunk_pct } => format!("sched_guided_{}", num(*chunk_pct)),
            Algorithm::Model1 { cutoff } => format!("model_1_auto{}", cut(cutoff)),
            Algorithm::Model2 { cutoff } => format!("model_2_auto{}", cut(cutoff)),
            Algorithm::ProfileConst { sample_pct, cutoff } => {
                format!("sched_profile_auto_{}{}", num(*sample_pct), cut(cutoff))
            }
            Algorithm::ProfileModel { sample_pct, cutoff } => {
                format!("model_profile_auto_{}{}", num(*sample_pct), cut(cutoff))
            }
            Algorithm::Auto { cutoff } => format!("auto{}", cut(cutoff)),
            Algorithm::WorkAssist { min_assist_pct, cutoff } => {
                format!("work_assist_{}{}", num(*min_assist_pct), cut(cutoff))
            }
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Block => write!(f, "BLOCK"),
            Algorithm::Dynamic { chunk_pct } => write!(f, "SCHED_DYNAMIC,{chunk_pct}%"),
            Algorithm::Guided { chunk_pct } => write!(f, "SCHED_GUIDED,{chunk_pct}%"),
            Algorithm::Model1 { cutoff } => match cutoff {
                Some(c) => write!(f, "MODEL_1_AUTO,-1,{}%", (c * 100.0).round()),
                None => write!(f, "MODEL_1_AUTO"),
            },
            Algorithm::Model2 { cutoff } => match cutoff {
                Some(c) => write!(f, "MODEL_2_AUTO,-1,{}%", (c * 100.0).round()),
                None => write!(f, "MODEL_2_AUTO"),
            },
            Algorithm::ProfileConst { sample_pct, cutoff } => match cutoff {
                Some(c) => {
                    write!(f, "SCHED_PROFILE_AUTO,{sample_pct}%,{}%", (c * 100.0).round())
                }
                None => write!(f, "SCHED_PROFILE_AUTO,{sample_pct}%"),
            },
            Algorithm::ProfileModel { sample_pct, cutoff } => match cutoff {
                Some(c) => {
                    write!(f, "MODEL_PROFILE_AUTO,{sample_pct}%,{}%", (c * 100.0).round())
                }
                None => write!(f, "MODEL_PROFILE_AUTO,{sample_pct}%"),
            },
            Algorithm::Auto { .. } => write!(f, "AUTO"),
            Algorithm::WorkAssist { min_assist_pct, cutoff } => match cutoff {
                Some(c) => {
                    write!(f, "WORK_ASSIST,{min_assist_pct}%,{}%", (c * 100.0).round())
                }
                None => write!(f, "WORK_ASSIST,{min_assist_pct}%"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homp_lang::ScheduleKind;

    #[test]
    fn paper_suite_has_seven() {
        assert_eq!(Algorithm::paper_suite().len(), 7);
    }

    #[test]
    fn lowering_defaults() {
        let a = Algorithm::from_schedule_kind(&ScheduleKind::Dynamic { chunk_pct: None }, None)
            .unwrap();
        assert_eq!(a, Algorithm::Dynamic { chunk_pct: 2.0 });
        let g =
            Algorithm::from_schedule_kind(&ScheduleKind::Guided { chunk_pct: None }, None).unwrap();
        assert_eq!(g, Algorithm::Guided { chunk_pct: 20.0 });
    }

    #[test]
    fn lowering_cutoff() {
        let a = Algorithm::from_schedule_kind(&ScheduleKind::Model2, Some(15)).unwrap();
        assert_eq!(a.cutoff(), Some(0.15));
    }

    #[test]
    fn align_is_not_an_algorithm() {
        assert!(Algorithm::from_schedule_kind(
            &ScheduleKind::Align { target: "x".into(), ratio: 1 },
            None
        )
        .is_none());
    }

    #[test]
    fn cutoff_support_matches_table_ii_note() {
        assert!(!Algorithm::Block.supports_cutoff());
        assert!(!Algorithm::Dynamic { chunk_pct: 2.0 }.supports_cutoff());
        assert!(!Algorithm::Guided { chunk_pct: 20.0 }.supports_cutoff());
        for a in &Algorithm::paper_suite()[3..] {
            assert!(a.supports_cutoff(), "{a}");
        }
    }

    #[test]
    fn with_cutoff_is_noop_for_chunkers() {
        assert_eq!(Algorithm::Block.with_cutoff(0.15), Algorithm::Block);
        assert_eq!(Algorithm::Model1 { cutoff: None }.with_cutoff(0.15).cutoff(), Some(0.15));
    }

    #[test]
    fn extended_suite_appends_work_assist() {
        let suite = Algorithm::extended_suite();
        assert_eq!(suite.len(), 8);
        assert_eq!(&suite[..7], &Algorithm::paper_suite()[..]);
        assert_eq!(
            suite[7],
            Algorithm::WorkAssist { min_assist_pct: DEFAULT_ASSIST_PCT, cutoff: None }
        );
        let cut = Algorithm::extended_suite_with_cutoff(0.15);
        assert_eq!(cut[7].cutoff(), Some(0.15));
    }

    #[test]
    fn work_assist_lowering_and_cutoff() {
        let a = Algorithm::from_schedule_kind(&ScheduleKind::WorkAssist { min_pct: None }, None)
            .unwrap();
        assert_eq!(a, Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None });
        let b = Algorithm::from_schedule_kind(
            &ScheduleKind::WorkAssist { min_pct: Some(10) },
            Some(15),
        )
        .unwrap();
        assert_eq!(b, Algorithm::WorkAssist { min_assist_pct: 10.0, cutoff: Some(0.15) });
        assert!(b.supports_cutoff());
        assert_eq!(a.with_cutoff(0.2).cutoff(), Some(0.2));
    }

    #[test]
    fn keys_are_stable_and_unique() {
        for suite in [Algorithm::extended_suite(), Algorithm::extended_suite_with_cutoff(0.15)] {
            let keys: Vec<String> = suite.iter().map(Algorithm::key).collect();
            for k in &keys {
                assert!(
                    k.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "key {k:?} is not a lowercase identifier"
                );
            }
            let mut dedup = keys.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len(), "duplicate keys in {keys:?}");
        }
        // Pinned spellings: goldens and CSV columns depend on these.
        assert_eq!(Algorithm::Block.key(), "block");
        assert_eq!(Algorithm::Dynamic { chunk_pct: 2.0 }.key(), "sched_dynamic_2");
        assert_eq!(Algorithm::Model2 { cutoff: Some(0.15) }.key(), "model_2_auto_c15");
        assert_eq!(
            Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None }.key(),
            "work_assist_5"
        );
        assert_eq!(
            Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: Some(0.15) }.key(),
            "work_assist_5_c15"
        );
        assert_eq!(
            Algorithm::WorkAssist { min_assist_pct: 2.5, cutoff: None }.key(),
            "work_assist_2_5"
        );
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(Algorithm::Dynamic { chunk_pct: 2.0 }.to_string(), "SCHED_DYNAMIC,2%");
        assert_eq!(
            Algorithm::ProfileConst { sample_pct: 10.0, cutoff: Some(0.15) }.to_string(),
            "SCHED_PROFILE_AUTO,10%,15%"
        );
        assert_eq!(Algorithm::Model1 { cutoff: Some(0.15) }.to_string(), "MODEL_1_AUTO,-1,15%");
        assert_eq!(
            Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: None }.to_string(),
            "WORK_ASSIST,5%"
        );
        assert_eq!(
            Algorithm::WorkAssist { min_assist_pct: 5.0, cutoff: Some(0.15) }.to_string(),
            "WORK_ASSIST,5%,15%"
        );
    }
}
