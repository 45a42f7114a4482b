//! A fixed-size worker thread pool over `std::sync::mpsc` — connections
//! are handled by a bounded set of threads so a flood of clients cannot
//! exhaust the process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed pool of worker threads consuming a shared job queue.
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `size` workers (`size` is clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("imc-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the recv itself.
                        let job = receiver.lock().expect("pool queue lock").recv();
                        match job {
                            // A panicking job (one request's handler) must
                            // cost its connection, not this worker: the
                            // pool never respawns threads.
                            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                            Err(_) => break, // all senders dropped → shut down
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job; some idle worker will run it.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool not shut down")
            .send(Box::new(job))
            .expect("workers alive while pool exists");
    }
}

impl Drop for ThreadPool {
    /// Graceful shutdown: close the queue, then join every worker —
    /// already-queued jobs finish first.
    fn drop(&mut self) {
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs_before_drop_returns() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4);
            assert_eq!(pool.size(), 4);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn zero_size_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("request handler bug"));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(1, Ordering::SeqCst);
        });
        drop(pool); // joins; the only worker must still have run job 2
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn jobs_run_concurrently() {
        // Two jobs that each wait for the other would deadlock on a
        // single-threaded pool; a 2-thread pool completes them.
        use std::sync::Barrier;
        let pool = ThreadPool::new(2);
        let barrier = Arc::new(Barrier::new(2));
        for _ in 0..2 {
            let b = Arc::clone(&barrier);
            pool.execute(move || {
                b.wait();
            });
        }
        drop(pool); // joins; would hang forever if not concurrent
    }
}
