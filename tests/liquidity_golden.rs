//! Golden determinism for the E18 liquidity suite: the deterministic
//! report section of `BENCH_liquidity.json` must be byte-identical
//! across repeat runs and across pipeline worker counts. Wall-clock data
//! lives only in the separate `perf` section, which this test never
//! compares.

use ripple_core::crypto::sha512_half;
use ripple_core::liquidity::{run_liquidity, LiquidityConfig};
use ripple_core::synth::PipelineConfig;
use ripple_core::{Generator, SynthConfig};

fn report_bytes(workers: usize) -> String {
    let config = SynthConfig {
        seed: 20130101,
        ..SynthConfig::small(2_000)
    };
    let run = Generator::new(config)
        .run_pipelined(&PipelineConfig {
            workers,
            chunk_size: 512,
            ..PipelineConfig::default()
        })
        .expect("pipeline");
    let liquidity = LiquidityConfig {
        probes: 128,
        oracle_sample: 8,
        ..LiquidityConfig::default()
    };
    run_liquidity(&run.output, &liquidity).report.to_json()
}

/// Besides the relative checks, the golden report is pinned absolutely,
/// so a change to how the suite schedules or computes its campaigns that
/// moves one byte fails here. Constant taken at commit 909f674.
#[test]
fn liquidity_report_bytes_stable_across_workers_and_repeats() {
    let golden = report_bytes(1);
    assert!(golden.contains("\"experiment\": \"liquidity\""));
    assert!(golden.contains("\"oracle_violations\": 0"));
    assert_eq!(
        sha512_half(golden.as_bytes()).to_hex(),
        "cc780447a8d489554fb096a0c0a83f3dfa85eda4508973a3556786961b030c19"
    );
    for workers in [2, 8, 1] {
        assert_eq!(
            report_bytes(workers),
            golden,
            "liquidity report must not depend on worker count ({workers})"
        );
    }
}

#[test]
fn serial_generation_report_is_repeatable() {
    let serial = |seed: u64| {
        let config = SynthConfig {
            seed,
            ..SynthConfig::small(2_000)
        };
        let output = Generator::new(config).run();
        let liquidity = LiquidityConfig {
            probes: 128,
            oracle_sample: 8,
            ..LiquidityConfig::default()
        };
        run_liquidity(&output, &liquidity).report.to_json()
    };
    assert_eq!(serial(20130101), serial(20130101));
    assert_ne!(serial(20130101), serial(20130102), "seed must matter");
}
