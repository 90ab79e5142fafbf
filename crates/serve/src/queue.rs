//! The run queue: the one place a job waits to run.
//!
//! The queue holds job *ids* (the job table owns the records), each
//! with the instant it becomes runnable. Fresh admissions and
//! re-adopted jobs are due at once; a retry is due when its backoff
//! ends. Runners block on `pop`, which hands out the ready entry with
//! the earliest due time (ties in push order), so a job backing off is
//! as cancellable by `remove` as one that was just admitted. The
//! admission bound lives in the HTTP layer's admission check, not here:
//! re-adopted jobs and retries never wait for room.
//!
//! The queue also carries the daemon's two stop latches: `close` (no
//! more pushes; runners take what is ready, then stop) and
//! `begin_drain` (runners take nothing more; whatever still waits is
//! left for the next `--resume-dir` daemon).

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A multi-producer multi-consumer queue of job ids ordered by due time.
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Inner {
    /// Entries in push order, each with its due time.
    entries: Vec<(String, Instant)>,
    closed: bool,
    draining: bool,
}

impl Inner {
    /// The entry with the earliest due time (the first pushed, among
    /// equals).
    fn next(&self) -> Option<(usize, Instant)> {
        (self.entries.iter().enumerate())
            .min_by_key(|(_, (_, due))| *due)
            .map(|(i, (_, due))| (i, *due))
    }
}

impl JobQueue {
    /// An empty, open queue.
    #[must_use]
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Jobs waiting, due or not.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").entries.len()
    }

    /// Enqueues `id`, runnable from `due` on; `false` after
    /// [`JobQueue::close`].
    #[must_use]
    pub fn push(&self, id: String, due: Instant) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return false;
        }
        inner.entries.push((id, due));
        drop(inner);
        // Every waiter re-reads the earliest due time: a consumer timed
        // to a later entry must not sleep past this one.
        self.ready.notify_all();
        true
    }

    /// Blocks up to `wait` for a due job, earliest due first; `None` on
    /// timeout, while draining, or once the queue is closed and nothing
    /// in it is due.
    #[must_use]
    pub fn pop(&self, wait: Duration) -> Option<String> {
        let give_up = Instant::now() + wait;
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            let now = Instant::now();
            let next = inner.next().filter(|_| !inner.draining);
            match next {
                Some((i, due)) if due <= now => return Some(inner.entries.remove(i).0),
                _ if inner.closed || now >= give_up => return None,
                _ => {}
            }
            let until = next.map_or(give_up, |(_, due)| due.min(give_up));
            inner = (self.ready)
                .wait_timeout(inner, until.saturating_duration_since(now))
                .expect("queue lock poisoned")
                .0;
        }
    }

    /// Removes a waiting job by id (cancellation), due or not; `false`
    /// when the id was not waiting (already claimed by a runner, or
    /// unknown).
    pub fn remove(&self, id: &str) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        match inner.entries.iter().position(|(q, _)| q == id) {
            Some(i) => {
                inner.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Closes the queue: pushes fail, and blocked runners wake up and
    /// take whatever is already due.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Whether the daemon is draining (admission checks this).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.inner.lock().expect("queue lock").draining
    }

    /// Stops handing out work, for good; `true` on the first call.
    pub fn begin_drain(&self) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        !std::mem::replace(&mut inner.draining, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn push_now(q: &JobQueue, id: &str) {
        assert!(q.push(id.to_owned(), Instant::now()));
    }

    #[test]
    fn fifo_order_among_entries_due_now() {
        let q = JobQueue::new();
        push_now(&q, "a");
        push_now(&q, "b");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("a"));
        push_now(&q, "c");
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("b"));
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("c"));
        assert_eq!(q.pop(Duration::from_millis(10)), None);
    }

    #[test]
    fn remove_cancels_only_queued_ids() {
        let q = JobQueue::new();
        push_now(&q, "a");
        push_now(&q, "b");
        assert!(q.remove("a"));
        assert!(!q.remove("a"));
        assert!(!q.remove("zzz"));
        assert_eq!(q.pop(Duration::from_millis(10)).as_deref(), Some("b"));
    }

    #[test]
    fn close_wakes_blocked_consumers_and_refuses_pushes() {
        let q = Arc::new(JobQueue::new());
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert!(!q.push("x".to_owned(), Instant::now()));
    }

    #[test]
    fn concurrent_producers_land_every_accepted_id_once() {
        let q = Arc::new(JobQueue::new());
        let producers: Vec<_> = (0..8)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut accepted = 0;
                    for i in 0..8 {
                        if q.push(format!("p{p}-{i}"), Instant::now()) {
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

    #[test]
    fn a_later_due_entry_is_not_handed_out_early() {
        let q = JobQueue::new();
        let due = Instant::now() + Duration::from_millis(150);
        assert!(q.push("later".to_owned(), due));
        assert_eq!(q.pop(Duration::from_millis(20)), None, "not due yet");
        assert_eq!(q.depth(), 1);
        assert_eq!(q.pop(Duration::from_secs(5)).as_deref(), Some("later"));
        assert!(Instant::now() >= due, "handed out before its due time");
    }

    #[test]
    fn an_earlier_due_entry_pushed_later_goes_first() {
        let q = JobQueue::new();
        let now = Instant::now();
        assert!(q.push("late".to_owned(), now + Duration::from_millis(30)));
        assert!(q.push("early".to_owned(), now));
        assert_eq!(q.pop(Duration::from_secs(5)).as_deref(), Some("early"));
        assert_eq!(q.pop(Duration::from_secs(5)).as_deref(), Some("late"));
    }

    #[test]
    fn a_consumer_waiting_for_a_later_entry_takes_an_earlier_one_pushed_meanwhile() {
        let q = Arc::new(JobQueue::new());
        assert!(q.push("late".to_owned(), Instant::now() + Duration::from_secs(60)));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(50));
        push_now(&q, "now");
        assert_eq!(consumer.join().unwrap().as_deref(), Some("now"));
    }

    #[test]
    fn remove_takes_a_not_yet_due_entry() {
        let q = JobQueue::new();
        let later = Instant::now() + Duration::from_secs(60);
        assert!(q.push("backoff".to_owned(), later));
        assert!(q.remove("backoff"));
        assert_eq!(q.depth(), 0);
        assert!(!q.remove("backoff"));
    }

    #[test]
    fn a_closed_queue_holding_only_future_entries_returns_none() {
        let q = JobQueue::new();
        assert!(q.push("retry".to_owned(), Instant::now() + Duration::from_secs(60)));
        q.close();
        let start = Instant::now();
        assert_eq!(q.pop(Duration::from_secs(30)), None);
        assert!(start.elapsed() < Duration::from_secs(5), "returned at once");
        assert_eq!(q.depth(), 1, "left for --resume-dir");
    }

    #[test]
    fn pop_returns_nothing_while_draining() {
        let q = JobQueue::new();
        push_now(&q, "a");
        assert!(q.begin_drain());
        assert_eq!(q.pop(Duration::from_millis(20)), None);
        q.close();
        assert_eq!(q.pop(Duration::from_millis(20)), None, "and closed");
        assert_eq!(q.depth(), 1, "left for the next daemon");
        assert!(q.remove("a"), "still cancellable");
    }

    #[test]
    fn drain_flag_flips_once() {
        let q = JobQueue::new();
        assert!(!q.is_draining());
        assert!(q.begin_drain(), "first call flips");
        assert!(!q.begin_drain(), "second call is a no-op");
        assert!(q.is_draining());
    }
}
