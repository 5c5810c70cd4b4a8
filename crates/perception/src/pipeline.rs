//! The end-to-end neuro-symbolic pipeline of Fig. 7.
//!
//! Scenes → (simulated) neural frontend → noisy product hypervectors →
//! factorizer → attribute estimates → (optionally) RPM rule induction.

use serde::{Deserialize, Serialize};

use hdc::rng::{derive_seed, stream_rng};
use hdc::Codebook;
use resonator::engine::Factorizer;

use crate::frontend::NeuralFrontend;
use crate::raven::{RavenPuzzle, RavenSolver};
use crate::scene::AttributeSchema;

/// Stream namespace for attribute-estimation scenes. Namespaces are mixed
/// into the seed through `derive_seed`, so the attribute and puzzle
/// streams can never collide regardless of how many items either side
/// draws (the old scheme's flat `1000 + i` / `50_000 + i` offsets
/// overlapped from `i = 49_000` on).
const STREAM_ATTRIBUTES: u64 = 0x5CEE_A77B;
/// Stream namespace for RPM puzzle generation.
const STREAM_PUZZLES: u64 = 0x5CEE_B422;

/// Accuracy summary of an attribute-estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerceptionReport {
    /// Scenes evaluated.
    pub scenes: usize,
    /// Fraction of individual attributes estimated correctly (the paper's
    /// 99.4 % metric).
    pub attribute_accuracy: f64,
    /// Fraction of scenes with *all* attributes correct.
    pub scene_accuracy: f64,
    /// Mean factorizer iterations per scene.
    pub mean_iterations: f64,
}

/// The pipeline: schema + codebooks + frontend.
pub struct PerceptionPipeline {
    schema: AttributeSchema,
    codebooks: Vec<Codebook>,
    frontend: NeuralFrontend,
    seed: u64,
    /// Evaluation calls issued so far. Every `attribute_accuracy` /
    /// `solve_puzzles` call draws its scenes from a fresh epoch stream —
    /// repeated calls score fresh scenes instead of silently re-scoring
    /// the same ones (the same epoch discipline `Session` applies to
    /// problem generation).
    epoch: u64,
}

impl PerceptionPipeline {
    /// Builds the pipeline with freshly sampled codebooks.
    pub fn new(schema: AttributeSchema, dim: usize, frontend: NeuralFrontend, seed: u64) -> Self {
        let mut rng = stream_rng(seed, 0);
        let codebooks = schema.codebooks(dim, &mut rng);
        Self {
            schema,
            codebooks,
            frontend,
            seed,
            epoch: 0,
        }
    }

    /// Evaluation epochs issued so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Master seed for the next epoch of `namespace`, advancing the epoch.
    fn next_epoch_seed(&mut self, namespace: u64) -> u64 {
        let master = derive_seed(derive_seed(self.seed, namespace), self.epoch);
        self.epoch += 1;
        master
    }

    /// The attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// The shared attribute codebooks.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// Estimates attributes for `n` random scenes through `engine` and
    /// scores them against ground truth (paper Sec. V-E).
    pub fn attribute_accuracy(
        &mut self,
        engine: &mut dyn Factorizer,
        n: usize,
    ) -> PerceptionReport {
        assert!(n > 0, "need at least one scene");
        let master = self.next_epoch_seed(STREAM_ATTRIBUTES);
        let mut attr_correct = 0usize;
        let mut scene_correct = 0usize;
        let mut iterations = 0usize;
        let f = self.schema.len();
        for i in 0..n {
            let mut rng = stream_rng(master, i as u64);
            let scene = self.schema.sample(&mut rng);
            let query = self
                .frontend
                .embed_with(&scene, &self.schema, &self.codebooks, &mut rng);
            let out =
                engine.factorize_query(&self.codebooks, &query, Some(scene.attributes.as_slice()));
            iterations += out.iterations;
            let correct = out
                .decoded
                .iter()
                .zip(&scene.attributes)
                .filter(|(a, b)| a == b)
                .count();
            attr_correct += correct;
            if correct == f {
                scene_correct += 1;
            }
        }
        PerceptionReport {
            scenes: n,
            attribute_accuracy: attr_correct as f64 / (n * f) as f64,
            scene_accuracy: scene_correct as f64 / n as f64,
            mean_iterations: iterations as f64 / n as f64,
        }
    }

    /// Solves `n` RPM puzzles end-to-end: every context panel and every
    /// candidate is embedded by the frontend and factorized (no ground
    /// truth leaks into the estimates); the symbolic solver then predicts
    /// and matches. Returns the puzzle-level accuracy.
    pub fn solve_puzzles(&mut self, engine: &mut dyn Factorizer, n: usize) -> f64 {
        assert!(n > 0, "need at least one puzzle");
        let master = self.next_epoch_seed(STREAM_PUZZLES);
        let solver = RavenSolver;
        let mut correct = 0usize;
        for i in 0..n {
            let mut rng = stream_rng(master, i as u64);
            let puzzle = RavenPuzzle::generate(&self.schema, &mut rng);
            let mut estimate = |scene: &crate::scene::Scene| -> Vec<usize> {
                let q = self
                    .frontend
                    .embed_with(scene, &self.schema, &self.codebooks, &mut rng);
                engine.factorize_query(&self.codebooks, &q, None).decoded
            };
            let context: Vec<Vec<usize>> = puzzle.context.iter().map(&mut estimate).collect();
            let candidates: Vec<Vec<usize>> = puzzle.candidates.iter().map(&mut estimate).collect();
            let pred = solver.predict(&self.schema, &context);
            if solver.choose(&pred, &candidates) == puzzle.answer {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resonator::StochasticResonator;

    #[test]
    fn attribute_estimation_is_accurate_in_paper_regime() {
        let schema = AttributeSchema::raven();
        let dim = 512;
        let spec = schema.problem_spec(dim);
        let mut pipeline =
            PerceptionPipeline::new(schema, dim, NeuralFrontend::paper_quality(7), 600);
        let mut engine = StochasticResonator::paper_default(spec, 2000, 8);
        let report = pipeline.attribute_accuracy(&mut engine, 60);
        assert!(
            report.attribute_accuracy > 0.93,
            "attribute accuracy {}",
            report.attribute_accuracy
        );
        assert!(report.mean_iterations < 2000.0);
    }

    #[test]
    fn ideal_frontend_gives_perfect_scenes() {
        let schema = AttributeSchema::raven();
        let dim = 512;
        let spec = schema.problem_spec(dim);
        let mut pipeline = PerceptionPipeline::new(schema, dim, NeuralFrontend::ideal(9), 601);
        let mut engine = StochasticResonator::paper_default(spec, 2000, 10);
        let report = pipeline.attribute_accuracy(&mut engine, 20);
        assert!(
            report.scene_accuracy >= 0.95,
            "scene accuracy {}",
            report.scene_accuracy
        );
    }

    /// Records every query it is asked to factorize and returns a fixed
    /// dummy outcome — lets tests observe exactly which scenes a pipeline
    /// evaluation drew.
    struct QueryProbe {
        queries: Vec<hdc::BipolarVector>,
    }

    impl Factorizer for QueryProbe {
        fn factorize_query(
            &mut self,
            codebooks: &[Codebook],
            query: &hdc::BipolarVector,
            _truth: Option<&[usize]>,
        ) -> resonator::engine::FactorizationOutcome {
            self.queries.push(query.clone());
            resonator::engine::FactorizationOutcome {
                solved: false,
                iterations: 1,
                solved_at: None,
                converged: false,
                decoded: vec![0; codebooks.len()],
                cycle: None,
                revisits: 0,
                degenerate_events: 0,
                trajectory: None,
                times: Default::default(),
            }
        }
    }

    #[test]
    fn consecutive_evaluations_see_fresh_scenes() {
        // The epoch counter must advance the scene stream: calling
        // `attribute_accuracy` twice (or `solve_puzzles` after it) may
        // never re-score the queries of the previous call.
        let schema = AttributeSchema::raven();
        let mut pipeline =
            PerceptionPipeline::new(schema, 256, NeuralFrontend::paper_quality(7), 610);
        let mut probe = QueryProbe {
            queries: Vec::new(),
        };
        let n = 12;
        let _ = pipeline.attribute_accuracy(&mut probe, n);
        let first: Vec<_> = probe.queries.drain(..).collect();
        assert_eq!(pipeline.epoch(), 1);
        let _ = pipeline.attribute_accuracy(&mut probe, n);
        let second: Vec<_> = probe.queries.drain(..).collect();
        assert_eq!(pipeline.epoch(), 2);
        for (i, q) in second.iter().enumerate() {
            assert!(
                !first.contains(q),
                "scene {i} of the second call re-scored a first-call scene"
            );
        }
        // Puzzle streams live in their own namespace: none of the 16
        // panel queries of puzzle 0 may collide with attribute scenes.
        let _ = pipeline.solve_puzzles(&mut probe, 1);
        for q in &probe.queries {
            assert!(
                !first.contains(q) && !second.contains(q),
                "puzzle panels must not reuse attribute-scene streams"
            );
        }
    }

    #[test]
    fn same_seed_pipelines_replay_identically() {
        // Determinism across pipeline instances: same seed, same calls,
        // same queries — epoching only separates calls *within* one
        // instance.
        let mk = || {
            PerceptionPipeline::new(
                AttributeSchema::raven(),
                256,
                NeuralFrontend::paper_quality(7),
                611,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let mut pa = QueryProbe {
            queries: Vec::new(),
        };
        let mut pb = QueryProbe {
            queries: Vec::new(),
        };
        let _ = a.attribute_accuracy(&mut pa, 8);
        let _ = a.solve_puzzles(&mut pa, 2);
        let _ = b.attribute_accuracy(&mut pb, 8);
        let _ = b.solve_puzzles(&mut pb, 2);
        assert_eq!(pa.queries, pb.queries);
    }

    #[test]
    fn puzzles_solve_end_to_end() {
        let schema = AttributeSchema::raven();
        let dim = 512;
        let spec = schema.problem_spec(dim);
        let mut pipeline =
            PerceptionPipeline::new(schema, dim, NeuralFrontend::paper_quality(11), 602);
        let mut engine = StochasticResonator::paper_default(spec, 1500, 12);
        let acc = pipeline.solve_puzzles(&mut engine, 10);
        assert!(acc >= 0.7, "puzzle accuracy {acc}");
    }
}
