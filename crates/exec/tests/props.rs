//! Property tests for the executor's determinism contract: results come
//! back in submission order with the same values for *any* worker count
//! and *any* completion order, and per-job isolation holds under
//! arbitrary panic patterns.

use std::time::Duration;

use spasm_exec::{execute, ExecConfig, ExecEvent, JobError, JobOutput};
use spasm_testkit::{check, check_with, gens, prop_assert, prop_assert_eq, Config};

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
                    Err(other) => return Err(format!("job {i}: unexpected {other}")),
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

#[test]
fn deadline_expiry_observed_by_a_job_never_races_to_ok() {
    // Regression for the cancel-path race: a job that *sees* its own
    // deadline expire (via `ctx.deadline_expired()`) and then returns a
    // value anyway must land in its slot as `Deadline`, never `Ok` —
    // the worker's verdict is a later reading of the clock the job's
    // poll read, so the two cannot disagree. Jobs sleep per a shuffled
    // permutation so completion order is adversarial relative to
    // submission order, and some jobs straddle the deadline while others
    // beat it.
    check_with(
        Config {
            cases: 12,
            ..Config::default()
        },
        "exec_deadline_race",
        &gens::tuple2(gens::usizes(1..4), gens::shuffled(0..8)),
        |(workers, perm)| {
            let limit = Duration::from_millis(4);
            let n = perm.len();
            let mut deadlined_events = vec![false; n];
            let mut finished_events = 0usize;
            let report = execute(
                ExecConfig {
                    jobs: *workers,
                    deadline: Some(limit),
                },
                perm.clone(),
                |ctx, rank| {
                    // ~1ms of polled sleep per rank unit: rank 0 returns
                    // immediately, high ranks overrun the 4ms limit.
                    let mut observed = false;
                    for _ in 0..rank {
                        std::thread::sleep(Duration::from_millis(1));
                        observed |= ctx.deadline_expired();
                    }
                    JobOutput::plain((ctx.job, observed))
                },
                |ev| match ev {
                    ExecEvent::Deadlined { job, limit: l, .. } => {
                        assert_eq!(*l, limit);
                        deadlined_events[*job] = true;
                    }
                    ExecEvent::Finished { .. } => finished_events += 1,
                    _ => {}
                },
            );
            let mut deadlined = 0usize;
            for (i, r) in report.results.iter().enumerate() {
                match r {
                    Ok((job, observed)) => {
                        prop_assert_eq!(*job, i);
                        prop_assert!(!observed, "job {} observed expiry yet won the slot", i);
                        prop_assert!(!deadlined_events[i], "job {} Ok despite Deadlined event", i);
                    }
                    Err(JobError::Deadline { limit: l }) => {
                        prop_assert_eq!(*l, limit);
                        prop_assert!(deadlined_events[i], "job {} Deadline without event", i);
                        deadlined += 1;
                    }
                    other => return Err(format!("job {i}: unexpected {other:?}")),
                }
            }
            let deadlined_seen = deadlined_events.iter().filter(|&&b| b).count();
            prop_assert_eq!(deadlined_seen, deadlined);
            prop_assert_eq!(finished_events + deadlined_seen, n);
            Ok(())
        },
    );
}
