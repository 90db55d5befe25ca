//! A bench-side re-enactment of one tier request, with a span around
//! every call into a layer.
//!
//! The traced run cannot see inside `servetier::execute` without spans
//! in the program (a later change), so it replays what `execute` does,
//! on the calling thread and in the same order, through the layers'
//! public functions: `HashRing::route` → `AdmissionQueue::push`/`pop`
//! → `Engine::peek_cached` → `PolicyEngine::decide` →
//! `Engine::submit_opts().wait()` → (`CachedOrdering::apply_on` on a
//! prepared miss) → `Engine::plan` → `ReorderResult::permute_input` →
//! `Kernel::execute` → `PolicyEngine::observe_spmv` →
//! `ReorderResult::unpermute_output`. Only those functions are called,
//! so a later refactor of the tier's mechanism does not break it.

use crate::harness::{self, Check, SliceResult, Workload};
use crate::spans::{Layer, SliceTracer, Tracer};
use crate::tier::{Handles, Key, Op, TierInputs, KERNEL, PREPARED_CAPACITY};
use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle, SubmitOptions};
use policy::{PolicyConfig, PolicyEngine, PolicyMode};
use reorder::ReorderResult;
use servetier::{AdmissionQueue, HashRing};
use sparsemat::CsrMatrix;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use team::{Exec, ThreadTeam};
use telemetry::Registry;

struct Prepared {
    handle: MatrixHandle,
    result: ReorderResult,
}

/// The state one shard of the tier holds, built from the same parts
/// with the same configuration as `tier::tier_config`.
pub struct Reenactor {
    ring: HashRing,
    queue: AdmissionQueue<u32>,
    policy: PolicyEngine,
    engine: Engine,
    team: ThreadTeam,
    /// (content hash, algorithm) → prepared matrix and last-use tick:
    /// an LRU of the tier's default capacity.
    prepared: HashMap<(u128, AlgoSpec), (Arc<Prepared>, u64)>,
    tick: u64,
}

impl Reenactor {
    pub fn new() -> Reenactor {
        let registry = Registry::new_arc();
        let defaults = servetier::TierConfig::default();
        Reenactor {
            ring: HashRing::new(1, defaults.vnodes),
            queue: AdmissionQueue::new(&[1], defaults.queue_capacity),
            policy: PolicyEngine::new(PolicyConfig {
                mode: PolicyMode::Always,
                registry: Some(Arc::clone(&registry)),
                ..PolicyConfig::default()
            }),
            engine: Engine::new(EngineConfig {
                workers: 1,
                reorder_threads: 1,
                registry: Some(Arc::clone(&registry)),
                ..EngineConfig::default()
            }),
            team: ThreadTeam::new_in(&registry, 1),
            prepared: HashMap::new(),
            tick: 0,
        }
    }

    fn prepared_get(&mut self, key: &(u128, AlgoSpec)) -> Option<Arc<Prepared>> {
        self.tick += 1;
        let (value, used) = self.prepared.get_mut(key)?;
        *used = self.tick;
        Some(Arc::clone(value))
    }

    fn prepared_insert(&mut self, key: (u128, AlgoSpec), value: Arc<Prepared>) {
        self.tick += 1;
        self.prepared.insert(key, (value, self.tick));
        if self.prepared.len() > PREPARED_CAPACITY {
            let oldest = *self
                .prepared
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| key)
                .expect("cache over capacity is not empty");
            self.prepared.remove(&oldest);
        }
    }

    /// Serve one request as `servetier::execute` would; the answer in
    /// the caller's index space.
    pub fn serve(
        &mut self,
        t: &mut Tracer,
        matrix: &MatrixHandle,
        algo: AlgoSpec,
        x: &[f64],
    ) -> Result<Vec<f64>, String> {
        t.span(Layer::Bench, "request", |t| {
            let hash = matrix.content_hash();
            // Submission side: route, admit, dequeue.
            t.span(Layer::Servetier, "HashRing::route", |_| {
                self.ring
                    .route(matrix.matrix().lineage_root().unwrap_or(hash))
            });
            t.span(Layer::Servetier, "AdmissionQueue::push", |_| {
                self.queue.push(0, 0, None, 0)
            })
            .map_err(|e| format!("admission refused: {e:?}"))?;
            t.span(Layer::Servetier, "AdmissionQueue::pop", |_| {
                self.queue.pop()
            });

            // From here on is what the tier reports as `service`.
            let cached = t
                .span(Layer::Engine, "Engine::peek_cached", |_| {
                    self.engine.peek_cached(matrix, algo)
                })
                .is_some();
            let decision = t.span(Layer::Policy, "PolicyEngine::decide", |_| {
                self.policy.decide(matrix.matrix(), hash, algo, cached)
            });
            let algo = decision.algo;
            let ordering = t
                .span(Layer::Engine, "Engine::submit_opts.wait", |_| {
                    self.engine
                        .submit_opts(matrix, algo, SubmitOptions::default())
                        .wait()
                })
                .map_err(|e| e.to_string())?;
            if decision.reorders() {
                t.span(Layer::Policy, "PolicyEngine::record_reorder_paid", |_| {
                    self.policy
                        .record_reorder_paid(hash, algo, ordering.compute_seconds)
                });
            }
            let key = (hash, algo);
            let prepared = match self.prepared_get(&key) {
                Some(p) => p,
                None => {
                    let reordered = t
                        .span(Layer::Sparsemat, "CachedOrdering::apply_on", |_| {
                            ordering
                                .apply_on(matrix.matrix(), Exec::Team(self.engine.reorder_team()))
                        })
                        .map_err(|e| e.to_string())?;
                    // Hashes the permuted matrix: `content_hash`.
                    let handle = t.span(Layer::Sparsemat, "MatrixHandle::from_matrix", |_| {
                        MatrixHandle::from_matrix(reordered)
                    });
                    let p = Arc::new(Prepared {
                        handle,
                        result: ordering.to_reorder_result(),
                    });
                    self.prepared_insert(key, Arc::clone(&p));
                    p
                }
            };
            let kernel = t.span(Layer::Engine, "Engine::plan", |_| {
                self.engine.plan(&prepared.handle, KERNEL, 1)
            });
            let xp = t.span(Layer::Reorder, "ReorderResult::permute_input", |_| {
                prepared.result.permute_input(x)
            });
            let mut yp = vec![0.0; prepared.handle.matrix().nrows()];
            let spmv_started = Instant::now();
            t.span(Layer::Spmv, "Kernel::execute", |_| {
                kernel.execute(&self.team, &xp, &mut yp)
            });
            let spmv_seconds = spmv_started.elapsed().as_secs_f64();
            t.span(Layer::Policy, "PolicyEngine::observe_spmv", |_| {
                self.policy.observe_spmv(hash, algo, spmv_seconds)
            });
            Ok(
                t.span(Layer::Reorder, "ReorderResult::unpermute_output", |_| {
                    prepared.result.unpermute_output(&yp)
                }),
            )
        })
    }
}

/// A tier workload's schedule replayed through the re-enactment:
/// same inputs, same warm pass, same checks, one thread.
pub struct ReenactWorkload<'a> {
    inputs: &'a TierInputs,
    shard: Option<Reenactor>,
    handles: Handles,
    pub spans: SliceTracer,
}

impl<'a> ReenactWorkload<'a> {
    pub fn new(inputs: &'a TierInputs, spans: SliceTracer) -> ReenactWorkload<'a> {
        ReenactWorkload {
            inputs,
            shard: None,
            handles: Handles::new(inputs),
            spans,
        }
    }

    fn read(&mut self, key: usize, op: usize, check: Check) -> bool {
        let Key { matrix, algo } = self.inputs.keys[key];
        let shard = self.shard.as_mut().expect("reset before slice");
        let x = &self.inputs.xs[matrix];
        let served = shard.serve(&mut self.spans.tracer, self.handles.of(matrix), algo, x);
        let version = self.handles.version(matrix);
        served.is_ok_and(|y| self.inputs.answer_ok(matrix, version, op, &y, check))
    }

    fn write(&mut self, matrix: usize) -> bool {
        let batch = &self.inputs.deltas[matrix][self.handles.version(matrix)];
        let current = self.handles.of(matrix);
        let (applied, handle) = self.spans.tracer.span(Layer::Bench, "write", |t| {
            let mut next = CsrMatrix::clone(current.matrix());
            let applied = t.span(Layer::Sparsemat, "CsrMatrix::apply_delta", |_| {
                next.apply_delta(batch)
            });
            let handle = t.span(Layer::Sparsemat, "MatrixHandle::from_matrix", |_| {
                MatrixHandle::from_matrix(next)
            });
            (applied, handle)
        });
        let expected = self.handles.advance(self.inputs, matrix, handle);
        applied.is_ok() && expected
    }
}

impl Workload for ReenactWorkload<'_> {
    fn ops(&self) -> usize {
        self.inputs.schedule.len()
    }

    fn reset(&mut self) -> Vec<f64> {
        let mut steps = Vec::with_capacity(1 + self.inputs.warm.len());
        let mut shard = harness::step(&mut steps, || {
            self.shard = None;
            Reenactor::new()
        });
        self.handles = Handles::new(self.inputs);
        let mut untraced = Tracer::new(false);
        for &key in &self.inputs.warm {
            let Key { matrix, algo } = self.inputs.keys[key];
            let x = &self.inputs.xs[matrix];
            harness::step(&mut steps, || {
                shard.serve(&mut untraced, self.handles.of(matrix), algo, x)
            })
            .expect("warm pass is served");
        }
        self.shard = Some(shard);
        steps
    }

    fn slice(&mut self, check: Check) -> SliceResult {
        let mut op_us = Vec::with_capacity(self.ops());
        self.spans.begin_slice();
        let t0 = Instant::now();
        for op in 0..self.inputs.schedule.len() {
            self.spans.tracer.begin_op(op as u32);
            let started = Instant::now();
            let ok = match self.inputs.schedule[op] {
                Op::Read { key } => self.read(key, op, check),
                Op::Write { matrix } => self.write(matrix),
            };
            let us = started.elapsed().as_secs_f64() * 1e6;
            op_us.push(if ok { us } else { f64::NAN });
        }
        let wall = t0.elapsed();
        self.spans.end_slice();
        SliceResult {
            wall,
            // One thread, no batches: a segment is an operation.
            segment_us: op_us.clone(),
            op_us,
            queue_wait_us: Vec::new(),
        }
    }

    fn schedule_hash(&self) -> u64 {
        0
    }

    fn finish(&mut self) -> bool {
        self.shard = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{answer_matches, naive_spmv};

    #[test]
    fn reenacted_request_answers_like_the_oracle_and_spans_every_layer() {
        let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(12, 12), 3));
        let x: Vec<f64> = (0..144).map(|i| 1.0 + i as f64 / 144.0).collect();
        let want = naive_spmv(matrix.matrix(), &x);
        let mut r = Reenactor::new();
        let mut t = Tracer::new(true);
        for (op, algo) in [AlgoSpec::Rcm, AlgoSpec::Gray, AlgoSpec::Rcm]
            .iter()
            .enumerate()
        {
            t.begin_op(op as u32);
            let y = r.serve(&mut t, &matrix, *algo, &x).unwrap();
            assert!(answer_matches(&y, &want), "{algo:?}");
        }
        let by_layer = t.layer_self_ns();
        for layer in Layer::ALL {
            assert!(by_layer[layer as usize] > 0, "no time in {}", layer.name());
        }
        assert_eq!(by_layer.iter().sum::<u64>(), t.root_ns());
        // The third request hit the prepared cache: no permute span.
        let permutes = |op| {
            t.spans()
                .iter()
                .filter(|s| s.op == op && s.name == "CachedOrdering::apply_on")
                .count()
        };
        assert_eq!((permutes(0), permutes(1), permutes(2)), (1, 1, 0));
        assert_eq!(r.engine.stats().jobs_executed, 2);
    }
}
