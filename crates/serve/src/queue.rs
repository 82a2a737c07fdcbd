//! Admission control: every POST route's work goes through the bounded
//! [`sparseadapt::exec::Pool`], and a full queue becomes an HTTP 429
//! with a `Retry-After` hint instead of unbounded memory growth.
//!
//! Dispatcher threads are cheap (one blocked thread per in-flight
//! request); the *simulation* concurrency is what must be bounded, because each
//! simulate/sweep job can itself fan out over the sweep pool and pin
//! CPUs for seconds. The pool's queue is the only buffer between the
//! two, so its capacity is the daemon's entire overload policy.

use std::sync::mpsc;

use sparseadapt::exec::Pool;

/// Why an admitted request produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The admission queue was full: reject with 429.
    Full,
    /// The job was admitted but died without answering (panicked):
    /// surface as 500.
    Crashed,
}

/// Runs `f` on the pool and blocks the calling dispatcher thread until
/// its result comes back.
///
/// # Errors
///
/// [`AdmitError::Full`] when the queue rejects the job,
/// [`AdmitError::Crashed`] when the job never sends a result.
pub fn run_admitted<T: Send + 'static>(
    pool: &Pool,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, AdmitError> {
    let (tx, rx) = mpsc::sync_channel::<T>(1);
    pool.try_submit(move || {
        let _ = tx.send(f());
    })
    .map_err(|_| AdmitError::Full)?;
    rx.recv().map_err(|_| AdmitError::Crashed)
}

/// Submits fire-and-forget work (async sweep jobs) through the same
/// admission queue.
///
/// # Errors
///
/// [`AdmitError::Full`] when the queue rejects the job.
pub fn submit_detached(pool: &Pool, f: impl FnOnce() + Send + 'static) -> Result<(), AdmitError> {
    pool.try_submit(f).map_err(|_| AdmitError::Full)
}

/// The `Retry-After` value (seconds) to attach to a 429: a coarse
/// queue-pressure hint, one second per queued job, floored at 1.
pub fn retry_after_s(pool: &Pool) -> u64 {
    (pool.queue_depth() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_work_returns_its_value() {
        let pool = Pool::new(2, 8);
        assert_eq!(run_admitted(&pool, || 6 * 7), Ok(42));
    }

    #[test]
    fn crashed_work_is_distinguished_from_rejection() {
        let pool = Pool::new(1, 8);
        let out: Result<u32, AdmitError> = run_admitted(&pool, || panic!("job dies"));
        assert_eq!(out, Err(AdmitError::Crashed));
        // The pool survives a crashed job and keeps answering.
        assert_eq!(run_admitted(&pool, || 1u32), Ok(1));
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = Pool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        submit_detached(&pool, move || {
            let _ = block_rx.recv();
        })
        .expect("first job admitted");
        // ...fill the single queue slot...
        while submit_detached(&pool, || {}).is_ok() {
            if pool.queue_depth() >= pool.queue_cap() {
                break;
            }
        }
        // ...and the next submission must bounce immediately.
        assert_eq!(submit_detached(&pool, || {}), Err(AdmitError::Full));
        assert!(retry_after_s(&pool) >= 1);
        block_tx.send(()).expect("unblock worker");
    }
}
