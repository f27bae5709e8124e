//! Counting semaphore for modeling bounded resources: request-queue tags,
//! bounce-buffer partitions, medium channels, DMA engines.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct SemState {
    permits: usize,
    /// FIFO of parked acquirers: (key, wanted, waker). Keys are handed out
    /// in increasing order and only ever pushed at the back, so the queue
    /// is sorted by key.
    waiters: VecDeque<(u64, usize, Waker)>,
    next_key: u64,
}

/// Async counting semaphore (single-threaded, FIFO fairness).
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                next_key: 0,
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Acquire one permit; resolves to an RAII guard.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Acquire `n` permits at once (FIFO: a large waiter at the head blocks
    /// later small ones, preventing starvation).
    pub fn acquire_many(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            wanted: n,
            key: None,
        }
    }

    /// Try to acquire without waiting.
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut st = self.state.borrow_mut();
        if st.waiters.is_empty() && st.permits >= 1 {
            st.permits -= 1;
            Some(Permit {
                sem: self.clone(),
                count: 1,
            })
        } else {
            None
        }
    }

    /// Add permits (used by Permit drop and by dynamic resizing).
    pub fn release(&self, n: usize) {
        self.state.borrow_mut().permits += n;
        self.wake_satisfiable();
    }

    /// A parked acquire was dropped: it leaves the queue, and permits a
    /// release may have woken it to take pass on to the new head. Out of
    /// line, since every future holding an `Acquire` inlines its drop.
    #[cold]
    #[inline(never)]
    fn cancel(&self, key: u64) {
        let mut st = self.state.borrow_mut();
        if let Ok(i) = st.waiters.binary_search_by_key(&key, |w| w.0) {
            st.waiters.remove(i);
        }
        drop(st);
        self.wake_satisfiable();
    }

    /// Wake, in order, the head waiters the free permits can satisfy
    /// (FIFO: the scan stops at the first that must keep waiting). Each
    /// waker is cloned under the borrow and woken after it.
    fn wake_satisfiable(&self) {
        let mut budget = self.state.borrow().permits;
        for i in 0.. {
            let waker = match self.state.borrow().waiters.get(i) {
                Some((_, wanted, waker)) if *wanted <= budget => {
                    budget -= wanted;
                    waker.clone()
                }
                _ => return,
            };
            waker.wake();
        }
    }
}

/// RAII permit; returns its permits on drop.
pub struct Permit {
    sem: Semaphore,
    count: usize,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.release(self.count);
    }
}

/// Future returned by the acquire methods.
pub struct Acquire {
    sem: Semaphore,
    wanted: usize,
    key: Option<u64>,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let mut st = self.sem.state.borrow_mut();
        let at_head = match self.key {
            None => st.waiters.is_empty(),
            Some(key) => st.waiters.front().is_some_and(|w| w.0 == key),
        };
        if at_head && st.permits >= self.wanted {
            st.permits -= self.wanted;
            if self.key.is_some() {
                st.waiters.pop_front();
            }
            let wanted = self.wanted;
            drop(st);
            self.key = None;
            return Poll::Ready(Permit {
                sem: self.sem.clone(),
                count: wanted,
            });
        }
        match self.key {
            None => {
                let key = st.next_key;
                st.next_key += 1;
                let wanted = self.wanted;
                st.waiters.push_back((key, wanted, cx.waker().clone()));
                drop(st);
                self.key = Some(key);
            }
            Some(key) => {
                if let Ok(i) = st.waiters.binary_search_by_key(&key, |w| w.0) {
                    st.waiters[i].2.clone_from(cx.waker());
                }
            }
        }
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(key) = self.key {
            self.sem.cancel(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimRuntime;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn limits_concurrency() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let sem = Semaphore::new(2);
        let active = Rc::new(Cell::new(0usize));
        let peak = Rc::new(Cell::new(0usize));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let sem = sem.clone();
            let h2 = h.clone();
            let active = active.clone();
            let peak = peak.clone();
            joins.push(h.spawn(async move {
                let _p = sem.acquire().await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                h2.sleep(SimDuration::from_nanos(100)).await;
                active.set(active.get() - 1);
            }));
        }
        rt.run();
        assert!(joins.iter().all(|j| j.is_finished()));
        assert_eq!(peak.get(), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn fifo_large_waiter_not_starved() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let sem = Semaphore::new(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        // Occupy both permits.
        let sem0 = sem.clone();
        let h0 = h.clone();
        let log0 = log.clone();
        h.spawn(async move {
            let p = sem0.acquire_many(2).await;
            h0.sleep(SimDuration::from_nanos(50)).await;
            log0.borrow_mut().push("holder-done");
            drop(p);
        });
        // A big request queued first...
        let sem1 = sem.clone();
        let h1 = h.clone();
        let log1 = log.clone();
        h.spawn(async move {
            h1.sleep(SimDuration::from_nanos(1)).await;
            let _p = sem1.acquire_many(2).await;
            log1.borrow_mut().push("big");
        });
        // ...must win over a later small request.
        let sem2 = sem.clone();
        let h2 = h.clone();
        let log2 = log.clone();
        h.spawn(async move {
            h2.sleep(SimDuration::from_nanos(2)).await;
            let _p = sem2.acquire().await;
            log2.borrow_mut().push("small");
        });
        rt.run();
        assert_eq!(*log.borrow(), vec!["holder-done", "big", "small"]);
    }

    #[test]
    fn try_acquire_respects_waiters() {
        let rt = SimRuntime::new();
        let sem = Semaphore::new(1);
        let p = sem.try_acquire().unwrap();
        assert!(sem.try_acquire().is_none());
        drop(p);
        assert!(sem.try_acquire().is_some());
        let _ = rt; // silence unused
    }

    #[test]
    fn cancelled_acquire_leaves_queue_clean() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let sem = Semaphore::new(0);
        let sem2 = sem.clone();
        let h2 = h.clone();
        rt.block_on(async move {
            {
                let mut fut = Box::pin(sem2.acquire());
                // poll once to park
                std::future::poll_fn(|cx| {
                    let _ = Pin::new(&mut fut).poll(cx);
                    Poll::Ready(())
                })
                .await;
            } // dropped here
            sem2.release(1);
            // Must be immediately acquirable; the cancelled waiter is gone.
            let _p = sem2.acquire().await;
            h2.sleep(SimDuration::from_nanos(1)).await;
        });
    }

    #[test]
    fn a_waiter_dropped_after_its_wake_passes_the_permit_on() {
        // Hold the one permit; A parks; B parks; release (which wakes A);
        // A's acquire is dropped before it polls again. B must still run.
        let rt = SimRuntime::new();
        let h = rt.handle();
        let sem = Semaphore::new(1);
        let b_ran = Rc::new(Cell::new(false));
        let (sem2, b_ran2) = (sem.clone(), b_ran.clone());
        rt.block_on(async move {
            let held = sem2.try_acquire().unwrap();
            let mut a = Box::pin(sem2.acquire());
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut a).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            let (sem3, b_ran3) = (sem2.clone(), b_ran2.clone());
            h.spawn(async move {
                let _p = sem3.acquire().await;
                b_ran3.set(true);
            });
            h.sleep(SimDuration::from_nanos(1)).await; // B parks behind A
            drop(held);
            drop(a);
            h.sleep(SimDuration::from_nanos(1)).await;
            assert!(b_ran2.get(), "B slept on a free permit");
        });
        assert!(b_ran.get());
        assert_eq!(sem.available(), 1);
    }
}
