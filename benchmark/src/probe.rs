//! Timing helpers for micro-probes: the harness calls a public function
//! of a layer that otherwise only runs inside another call, on inputs
//! sampled from the workload's own history, and reports its unit cost.

use std::time::Instant;

/// Calls `f` in growing batches until `min_secs` have passed; returns the
/// call count and the seconds they took. Batching keeps the clock reads
/// out of nanosecond-scale costs.
pub fn time_for(min_secs: f64, mut f: impl FnMut()) -> (u64, f64) {
    let started = Instant::now();
    let (mut calls, mut batch) = (0u64, 1u64);
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let secs = started.elapsed().as_secs_f64();
        if secs >= min_secs {
            return (calls, secs);
        }
        batch = (batch * 2).min(1 << 16);
    }
}

/// Nanoseconds per operation.
pub fn per_op_ns(ops: u64, secs: f64) -> f64 {
    secs * 1e9 / ops.max(1) as f64
}

/// Operations per second.
pub fn per_sec(ops: u64, secs: f64) -> f64 {
    ops as f64 / secs.max(1e-9)
}
