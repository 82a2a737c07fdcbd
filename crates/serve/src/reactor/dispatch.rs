//! Dispatcher pool and completion plumbing between the reactor thread
//! and route handlers.
//!
//! The reactor runs no blocking handler on its own thread — one that
//! parks on the simulation pool would stall every multiplexed socket.
//! The single exception is the service's inline handler, which answers
//! only simulate requests whose trace is already resident in memory
//! (no disk, no pool, no lock held across I/O) and declines the rest.
//! Every other parsed request is pushed onto a bounded queue consumed
//! by a small pool of dispatcher threads; each runs the route function,
//! renders the response to bytes, and pushes a [`Completion`] onto the
//! shared completion queue, signalling the reactor through an eventfd
//! so the `epoll_wait` call wakes immediately.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::http::{response_bytes, Request};
use crate::server::RouteFn;

/// A unit of work for a dispatcher thread.
pub(crate) struct Job {
    /// Slab slot of the originating connection.
    pub slot: u32,
    /// Slot generation at dispatch time (stale completions are dropped).
    pub gen: u32,
    /// The parsed request.
    pub req: Request,
    /// Whether the connection should keep-alive after this response
    /// (false once draining or the client asked to close).
    pub keep_alive: bool,
}

/// A finished response headed back to the reactor.
pub(crate) struct Completion {
    /// Slab slot of the originating connection.
    pub slot: u32,
    /// Slot generation at dispatch time.
    pub gen: u32,
    /// Fully rendered response bytes.
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes flush.
    pub close_after: bool,
}

/// Wrapper owning an eventfd file descriptor.
#[derive(Debug)]
pub(crate) struct EventFd {
    fd: i32,
}

impl EventFd {
    /// Creates a nonblocking eventfd.
    pub fn new() -> std::io::Result<EventFd> {
        Ok(EventFd {
            fd: sysio::eventfd()?,
        })
    }

    /// Raw descriptor for epoll registration.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Increments the counter, waking any epoll waiter.
    pub fn signal(&self) {
        let _ = sysio::eventfd_signal(self.fd);
    }

    /// Clears the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let _ = sysio::eventfd_drain(self.fd);
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        sysio::close_fd(self.fd);
    }
}

/// Bounded MPMC job queue (mutex + condvar; `std::sync::mpsc` receivers
/// are not `Sync`, so they cannot feed a thread pool directly).
struct JobQueue {
    inner: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cap: usize,
    closed: AtomicBool,
}

impl JobQueue {
    /// Nonblocking push; `Err` when the queue is at capacity (the
    /// reactor sheds with a 503 instead of blocking). The rejected job
    /// rides back in the `Err` by design — the caller still owns it.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }
}

/// Completions accumulated for the reactor, paired with the eventfd
/// that wakes it.
pub(crate) struct CompletionQueue {
    inner: Mutex<Vec<Completion>>,
    wake: EventFd,
}

impl CompletionQueue {
    /// Empty queue around a fresh eventfd.
    pub fn new() -> std::io::Result<CompletionQueue> {
        Ok(CompletionQueue {
            inner: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }

    /// Eventfd descriptor the reactor registers with epoll.
    pub fn wake_fd(&self) -> i32 {
        self.wake.fd()
    }

    /// Queues a completion and wakes the reactor.
    pub fn push(&self, completion: Completion) {
        self.inner.lock().unwrap().push(completion);
        self.wake.signal();
    }

    /// Takes every pending completion and clears the wake signal.
    pub fn drain(&self) -> Vec<Completion> {
        self.wake.drain();
        std::mem::take(&mut *self.inner.lock().unwrap())
    }
}

/// Handle to the dispatcher thread pool.
pub(crate) struct Dispatcher {
    jobs: Arc<JobQueue>,
    busy: Arc<Mutex<usize>>,
    threads: Vec<JoinHandle<()>>,
}

impl Dispatcher {
    /// Spawns `threads` dispatcher workers consuming a queue of
    /// capacity `cap`, producing into `completions`.
    pub fn spawn(
        threads: usize,
        cap: usize,
        route: RouteFn,
        completions: Arc<CompletionQueue>,
    ) -> Dispatcher {
        let jobs = Arc::new(JobQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
            closed: AtomicBool::new(false),
        });
        let busy = Arc::new(Mutex::new(0usize));
        let handles = (0..threads.max(1))
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                let busy = Arc::clone(&busy);
                let route = Arc::clone(&route);
                let completions = Arc::clone(&completions);
                std::thread::Builder::new()
                    .name(format!("serve-dispatch-{i}"))
                    .spawn(move || {
                        while let Some(job) = jobs.pop() {
                            *busy.lock().unwrap() += 1;
                            let resp = route(&job.req);
                            let bytes = response_bytes(&resp, job.keep_alive);
                            // Drop the busy mark *before* publishing the
                            // completion: drain-completeness is gated on
                            // the connection slab, so a completion must
                            // never be observable while its worker still
                            // counts as busy.
                            *busy.lock().unwrap() -= 1;
                            completions.push(Completion {
                                slot: job.slot,
                                gen: job.gen,
                                bytes,
                                close_after: !job.keep_alive,
                            });
                        }
                    })
                    .expect("spawn dispatcher thread")
            })
            .collect();
        Dispatcher {
            jobs,
            busy,
            threads: handles,
        }
    }

    /// Nonblocking submit; `Err` returns the job when the queue is full
    /// so the reactor can shed it.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        self.jobs.try_push(job)
    }

    /// True when no jobs are queued and no worker is mid-handler (used
    /// by graceful drain).
    pub fn idle(&self) -> bool {
        self.jobs.is_empty() && *self.busy.lock().unwrap() == 0
    }

    /// Closes the queue and joins every worker.
    pub fn shutdown(mut self) {
        self.jobs.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;
    use std::time::Duration;

    fn parse_request(raw: &[u8]) -> Request {
        let mut parser = crate::http::RequestParser::new();
        parser.feed(raw);
        match parser.next_request() {
            crate::http::Parsed::Request(req) => *req,
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn dispatcher_runs_route_and_completes() {
        let completions = Arc::new(CompletionQueue::new().expect("eventfd"));
        let route: RouteFn =
            Arc::new(|req: &Request| Response::json(200, format!("{{\"path\":\"{}\"}}", req.path)));
        let dispatcher = Dispatcher::spawn(2, 16, route, Arc::clone(&completions));
        dispatcher
            .try_submit(Job {
                slot: 3,
                gen: 1,
                req: parse_request(b"GET /ping HTTP/1.1\r\n\r\n"),
                keep_alive: true,
            })
            .unwrap_or_else(|_| panic!("queue full"));
        let mut drained = Vec::new();
        for _ in 0..200 {
            drained = completions.drain();
            if !drained.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(drained.len(), 1);
        let completion = &drained[0];
        assert_eq!((completion.slot, completion.gen), (3, 1));
        assert!(!completion.close_after);
        let text = String::from_utf8_lossy(&completion.bytes).into_owned();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(text.contains("keep-alive"), "got: {text}");
        assert!(text.contains("/ping"), "got: {text}");
        assert!(dispatcher.idle());
        dispatcher.shutdown();
    }

    #[test]
    fn full_queue_returns_job_for_shedding() {
        let completions = Arc::new(CompletionQueue::new().expect("eventfd"));
        // A route that parks forever keeps the single worker busy so the
        // queue backs up deterministically.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let route_gate = Arc::clone(&gate);
        let route: RouteFn = Arc::new(move |_req: &Request| {
            let (lock, cv) = &*route_gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            Response::json(200, "{}".to_string())
        });
        let dispatcher = Dispatcher::spawn(1, 1, route, Arc::clone(&completions));
        let job = |slot| Job {
            slot,
            gen: 0,
            req: parse_request(b"GET / HTTP/1.1\r\n\r\n"),
            keep_alive: true,
        };
        // First job occupies the worker (may briefly sit queued), second
        // fills the queue, third must bounce.
        dispatcher.try_submit(job(0)).unwrap_or_else(|_| panic!());
        for _ in 0..200 {
            if dispatcher.jobs.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        dispatcher.try_submit(job(1)).unwrap_or_else(|_| panic!());
        let bounced = dispatcher.try_submit(job(2));
        assert!(bounced.is_err(), "third job should be shed");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        dispatcher.shutdown();
    }
}
