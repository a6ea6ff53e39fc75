//! Property tests for the executor's determinism contract: results come
//! back in submission order with the same values for *any* worker count
//! and *any* completion order, and per-job isolation holds under
//! arbitrary panic patterns.

use std::time::Duration;

use spasm_exec::{execute, ExecConfig, ExecEvent, JobError, JobOutput};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq};

#[test]
fn parallel_results_match_serial_for_any_worker_count() {
    check(
        "exec_order_preserving",
        &gens::tuple2(
            gens::usizes(1..9),
            gens::vecs(gens::u64s(0..1_000_000), 0..40),
        ),
        |(workers, items)| {
            let run = |jobs: usize| {
                execute(
                    ExecConfig::with_jobs(jobs),
                    items.clone(),
                    |ctx, v| JobOutput::plain(v.wrapping_mul(31).wrapping_add(ctx.job as u64)),
                    |_| {},
                )
                .results
            };
            prop_assert_eq!(run(1), run(*workers));
            Ok(())
        },
    );
}

#[test]
fn submission_order_survives_adversarial_completion_order() {
    // Each job sleeps according to a random priority permutation, so
    // completion order is scrambled relative to submission order; the
    // results vector must not care.
    check(
        "exec_scrambled_completion",
        &gens::shuffled(1..14),
        |perm| {
            let n = perm.len();
            let report = execute(
                ExecConfig::with_jobs(n),
                perm.clone(),
                |ctx, rank| {
                    // Later submission ranks may finish first.
                    std::thread::sleep(Duration::from_micros(200 * rank as u64));
                    JobOutput::plain((ctx.job, rank))
                },
                |_| {},
            );
            for (i, r) in report.results.iter().enumerate() {
                let (job, rank) = *r.as_ref().unwrap();
                prop_assert_eq!(job, i);
                prop_assert_eq!(rank, perm[i]);
            }
            Ok(())
        },
    );
}

#[test]
fn panic_pattern_maps_exactly_onto_results() {
    check(
        "exec_panic_isolation",
        &gens::tuple2(gens::usizes(1..6), gens::vecs(gens::bools(), 1..24)),
        |(workers, pattern)| {
            let mut panicked = 0usize;
            let report = execute(
                ExecConfig::with_jobs(*workers),
                pattern.clone(),
                |ctx, explode| {
                    if explode {
                        panic!("job {} exploded", ctx.job);
                    }
                    JobOutput::plain(ctx.job)
                },
                |ev| panicked += usize::from(matches!(ev, ExecEvent::Panicked { .. })),
            );
            for (i, (r, &explode)) in report.results.iter().zip(pattern).enumerate() {
                match r {
                    Ok(job) => prop_assert!(!explode && *job == i),
                    Err(JobError::Panicked(msg)) => {
                        prop_assert!(explode, "job {i} panicked unasked");
                        prop_assert!(msg.contains(&format!("job {i} exploded")), "{msg}");
                    }
                }
            }
            prop_assert_eq!(panicked, pattern.iter().filter(|&&b| b).count());
            Ok(())
        },
    );
}

#[test]
fn event_stream_is_complete_and_consistent() {
    check(
        "exec_event_stream",
        &gens::tuple2(gens::usizes(1..6), gens::usizes(0..30)),
        |(workers, n)| {
            let mut queued = 0usize;
            let mut started = vec![false; *n];
            let mut finished = vec![false; *n];
            let (mut cost_spent, mut faults_injected) = (0u64, 0u64);
            execute(
                ExecConfig::with_jobs(*workers),
                (0..*n).collect(),
                |_ctx, v| JobOutput {
                    value: v,
                    cost: 3,
                    faults: 2,
                },
                |ev| match *ev {
                    ExecEvent::Queued { .. } => queued += 1,
                    ExecEvent::Started { job, worker } => {
                        assert!(worker < *workers);
                        started[job] = true;
                    }
                    ExecEvent::Finished {
                        job, cost, faults, ..
                    } => {
                        assert!(started[job], "finish before start");
                        finished[job] = true;
                        cost_spent += cost;
                        faults_injected += faults;
                    }
                    ref other => panic!("unexpected event {other:?}"),
                },
            );
            prop_assert_eq!(queued, *n);
            prop_assert!(finished.iter().all(|&b| b));
            prop_assert_eq!(cost_spent, 3 * *n as u64);
            prop_assert_eq!(faults_injected, 2 * *n as u64);
            Ok(())
        },
    );
}
