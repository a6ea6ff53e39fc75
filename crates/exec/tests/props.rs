//! Property tests for the executor's determinism contract: results come
//! back in submission order with the same values for *any* worker count
//! and *any* completion order, and a job's panic reaches the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use spasm_exec::{execute, ExecConfig, JobOutput};
use spasm_testkit::{check, gens, prop_assert_eq};

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
                let (job, rank) = *r;
                prop_assert_eq!(job, i);
                prop_assert_eq!(rank, perm[i]);
            }
            Ok(())
        },
    );
}

#[test]
fn a_job_panic_unwinds_to_the_caller_inline_and_pooled() {
    for jobs in [1, 4] {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            execute(
                ExecConfig::with_jobs(jobs),
                (0u64..16).collect(),
                |ctx, v| {
                    if v == 5 {
                        panic!("job {} exploded", ctx.job);
                    }
                    JobOutput::plain(v)
                },
                |_| {
                    finished.fetch_add(1, Ordering::Relaxed);
                },
            )
        }));
        let payload = caught.expect_err("a job panic must reach the caller");
        let finished = finished.load(Ordering::Relaxed);
        if jobs == 1 {
            // Inline, the panic is the job's own and stops the loop where
            // it happened.
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(message, "job 5 exploded");
            assert_eq!(finished, 5);
        } else {
            // Pooled, the other workers drain the queue before the join.
            assert_eq!(finished, 15);
        }
    }
}
