//! Closes the loop between the paper's analytic model (§II-A) and the
//! running system: estimate the model's per-transaction parameters
//! (t, c·d) from *measured* runs, apply Observation 1, and check that the
//! simulator's actual makespans move the way the model says.
//!
//! The model is deliberately coarse (continuous execution, binomial abort
//! scaling, no metadata/lock-mode effects — the paper itself notes
//! Observation 1 "has not taken this special optimization into account"),
//! so the checks are about *direction and ordering*, matching how the
//! paper uses the model.

use std::sync::Arc;

use votm::{Addr, QuotaMode, TmAlgorithm, Version, Votm};
use votm_bench::{sweep, App, Settings};
use votm_model::{makespan_rac, TxParams};
use votm_sim::{RunStatus, SimConfig, SimExecutor};
use votm_utils::XorShift64;

const N: u32 = 16;
const TX_PER_THREAD: u64 = 60;

/// Runs a uniform synthetic workload at fixed quota; returns
/// (makespan, commits, cycles_ok, cycles_aborted).
fn measure(q: u32, reads: u32, writes: u32, hot_words: u64, nops: u64) -> (u64, u64, u64, u64) {
    let sys = Votm::builder()
        .algo(TmAlgorithm::OrecEagerRedo)
        .threads(N)
        .build();
    let view = sys.create_view(hot_words as usize + 8, QuotaMode::Fixed(q));
    let mut ex = SimExecutor::new(SimConfig::default());
    for t in 0..u64::from(N) {
        let view = Arc::clone(&view);
        ex.spawn(move |rt| async move {
            let mut rng = XorShift64::new(t + 1);
            for _ in 0..TX_PER_THREAD {
                view.transact(&rt, async |tx| {
                    let mut acc = 0u64;
                    for _ in 0..reads {
                        let a = Addr(rng.next_below(hot_words) as u32);
                        acc = acc.wrapping_add(tx.read(a).await?);
                    }
                    tx.local_work(0, 0, nops).await;
                    for _ in 0..writes {
                        let a = Addr(rng.next_below(hot_words) as u32);
                        tx.write(a, acc).await?;
                    }
                    Ok(())
                })
                .await;
            }
        });
    }
    let out = ex.run();
    assert_eq!(out.status, RunStatus::Completed, "q={q}");
    let s = view.stats();
    (
        out.vtime,
        s.tm.commits,
        s.tm.cycles_successful,
        s.tm.cycles_aborted,
    )
}

/// Fits TxParams from a measurement: the model's `t` is the mean
/// successful-attempt time and `c·d` the mean aborted work per committed
/// transaction (only the product enters the equations).
fn fit_params(commits: u64, cycles_ok: u64, cycles_aborted: u64) -> Vec<TxParams> {
    let t = cycles_ok as f64 / commits as f64;
    let cd = cycles_aborted as f64 / commits as f64;
    vec![TxParams::new(t, 1.0, cd); commits as usize]
}

/// Observation 1 checked against the system on synthetic workloads: the
/// fitted δ's verdict must match the measured makespan direction between
/// Q = N and Q = N/4 (among transactional quotas — the Q = 1 lock-mode
/// effect is outside the model, as the paper notes).
#[test]
fn fitted_delta_direction_matches_simulator() {
    let configs: [(&str, u32, u32, u64, u64); 3] = [
        ("hot-plateau", 80, 20, 256, 0),
        ("scalable", 4, 2, 4096, 400),
        ("medium", 16, 4, 1024, 100),
    ];
    for (label, reads, writes, words, nops) in configs {
        let (s_full, commits, ok, ab) = measure(N, reads, writes, words, nops);
        let txs = fit_params(commits, ok, ab);
        let delta = votm_model::delta_ratio(&txs, N);
        let (s_quarter, ..) = measure(N / 4, reads, writes, words, nops);
        let ratio = s_full as f64 / s_quarter as f64;
        if delta > 1.0 {
            assert!(
                ratio > 1.0,
                "{label}: delta {delta:.2} > 1 but Q=N ({s_full}) not worse than Q=N/4 ({s_quarter})"
            );
        } else {
            // delta <= 1: restricting must not have helped by more than
            // noise (15% tolerance for scheduling effects).
            assert!(
                ratio < 1.15,
                "{label}: delta {delta:.2} <= 1 but Q=N ({s_full}) is {ratio:.2}x Q=N/4 ({s_quarter})"
            );
        }
    }
}

/// The δ > 1 regime, validated on the paper's own workload: in the
/// multi-view Eigenbench sweep (Table V) the hot view's measured δ(Q₁)
/// exceeds 1 at high Q₁, and there the measured runtime strictly improves
/// as Q₁ is lowered — Observation 1 end to end.
#[test]
fn observation1_holds_on_eigenbench_hot_view() {
    let settings = Settings {
        eigen_scale: 0.0005,
        ..Default::default()
    };
    let base = settings.run(App::EIGEN, TmAlgorithm::OrecEagerRedo, Version::MultiView);
    let rows = sweep(&settings, &base.fixed_quota_sweep());
    // Rows are Q1 = 1, 2, 4, 8, 16.
    let completed: Vec<_> = rows
        .iter()
        .filter(|r| r.outcome.status == RunStatus::Completed)
        .collect();
    assert!(completed.len() >= 4, "most of the sweep should complete");
    // delta(Q1) grows with Q1 and exceeds 1 somewhere in the sweep.
    let deltas: Vec<f64> = completed
        .iter()
        .filter_map(|r| r.views[0].delta())
        .collect();
    assert!(
        deltas.last().unwrap() > &1.0,
        "hot view should measure delta > 1 at high Q1: {deltas:?}"
    );
    assert!(
        deltas.windows(2).all(|w| w[1] >= w[0] * 0.8),
        "delta(Q1) should broadly rise with Q1: {deltas:?}"
    );
    // Wherever measured delta(Q1) > 1, lowering Q1 reduced the runtime.
    for pair in completed.windows(2) {
        if let Some(d) = pair[1].views[0].delta() {
            if d > 1.0 {
                assert!(
                    pair[0].runtime_s() < pair[1].runtime_s(),
                    "delta({:?})={d:.2} > 1 but runtime did not improve when lowering Q1",
                    pair[1].run.quotas[0]
                );
            }
        }
    }
}

/// Quantitative (loose) agreement: Eq. 2 normalised by its own Q = N point
/// tracks the measured plateau within 2× for every transactional quota.
#[test]
fn fitted_model_makespans_track_simulator_within_factor_two() {
    let (s16, commits, ok, ab) = measure(16, 80, 20, 256, 0);
    let txs = fit_params(commits, ok, ab);
    let m16 = makespan_rac(&txs, 16, N);
    for q in [2u32, 4, 8] {
        let (sq, ..) = measure(q, 80, 20, 256, 0);
        let mq = makespan_rac(&txs, q, N);
        let predicted_ratio = mq / m16;
        let measured_ratio = sq as f64 / s16 as f64;
        let err = predicted_ratio / measured_ratio;
        assert!(
            (0.5..2.0).contains(&err),
            "q={q}: predicted ratio {predicted_ratio:.3} vs measured {measured_ratio:.3}"
        );
    }
}
