//! Bounded FIFO job queue with admission control.
//!
//! The queue holds job *ids* (the job table owns the records). Its
//! bound is the service's admission limit: `push` fails immediately
//! when the queue is full — the HTTP layer turns that into a 429 with
//! `Retry-After` — rather than blocking the submitter. Runners block
//! on `pop` until work arrives or the queue is closed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A bounded multi-producer multi-consumer FIFO of job ids.
#[derive(Debug)]
pub struct JobQueue {
    bound: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<String>,
    closed: bool,
}

/// Why a `push` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at its admission bound.
    Full,
    /// The queue was closed for shutdown.
    Closed,
}

impl JobQueue {
    /// A queue admitting at most `bound` queued jobs (bound >= 1).
    #[must_use]
    pub fn new(bound: usize) -> JobQueue {
        JobQueue {
            bound: bound.max(1),
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Jobs currently queued.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").queue.len()
    }

    /// Enqueues `id`, refusing immediately when full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at the admission bound, [`PushError::Closed`]
    /// after [`JobQueue::close`].
    pub fn push(&self, id: String) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.queue.len() >= self.bound {
            return Err(PushError::Full);
        }
        inner.queue.push_back(id);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks up to `wait` for a job; `None` on timeout or when the
    /// queue is closed and drained.
    #[must_use]
    pub fn pop(&self, wait: Duration) -> Option<String> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(id) = inner.queue.pop_front() {
                return Some(id);
            }
            if inner.closed {
                return None;
            }
            let (next, timeout) = self
                .ready
                .wait_timeout(inner, wait)
                .expect("queue lock poisoned");
            inner = next;
            if timeout.timed_out() {
                return inner.queue.pop_front();
            }
        }
    }

    /// Removes a queued job by id (cancellation); `false` when the id
    /// was not queued (already claimed by a runner, or unknown).
    pub fn remove(&self, id: &str) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        match inner.queue.iter().position(|q| q == id) {
            Some(i) => {
                inner.queue.remove(i);
                true
            }
            None => false,
        }
    }

    /// Closes the queue: pushes fail, and blocked runners wake up and
    /// drain whatever is left.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_admission_bound() {
        let q = JobQueue::new(2);
        q.push("a".to_owned()).unwrap();
        q.push("b".to_owned()).unwrap();
        assert_eq!(q.push("c".to_owned()), Err(PushError::Full));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("a"));
        q.push("c".to_owned()).unwrap();
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("b"));
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("c"));
        assert_eq!(q.pop(Duration::from_millis(10)), None);
    }

    #[test]
    fn remove_cancels_only_queued_ids() {
        let q = JobQueue::new(4);
        q.push("a".to_owned()).unwrap();
        q.push("b".to_owned()).unwrap();
        assert!(q.remove("a"));
        assert!(!q.remove("a"));
        assert!(!q.remove("zzz"));
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("b"));
    }

    #[test]
    fn close_wakes_blocked_consumers_and_refuses_pushes() {
        let q = Arc::new(JobQueue::new(2));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push("x".to_owned()), Err(PushError::Closed));
    }

    #[test]
    fn concurrent_producers_land_every_accepted_id_once() {
        let q = Arc::new(JobQueue::new(64));
        let producers: Vec<_> = (0..8)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut accepted = 0;
                    for i in 0..8 {
                        if q.push(format!("p{p}-{i}")).is_ok() {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
        let mut drained = Vec::new();
        while let Some(id) = q.pop(Duration::from_millis(10)) {
            drained.push(id);
        }
        assert_eq!(drained.len(), accepted);
        drained.sort();
        drained.dedup();
        assert_eq!(drained.len(), accepted, "no id delivered twice");
    }
}
