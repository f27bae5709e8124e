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
    /// FIFO of parked acquirers: (key, waker). Keys are handed out in
    /// increasing order and only ever pushed at the back, so the queue is
    /// sorted by key.
    waiters: VecDeque<(u64, Waker)>,
    next_key: u64,
}

/// Async counting semaphore (single-threaded, FIFO fairness). Every
/// acquire takes one permit, and dropping the [`Permit`] gives it back.
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

    /// Acquire one permit; resolves to an RAII guard. Waiters are served
    /// in arrival order.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            key: None,
        }
    }

    /// Try to acquire without waiting.
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut st = self.state.borrow_mut();
        if st.waiters.is_empty() && st.permits >= 1 {
            st.permits -= 1;
            Some(Permit { sem: self.clone() })
        } else {
            None
        }
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

    /// Wake, in order, as many head waiters as there are free permits.
    /// Each waker is cloned under the borrow and woken after it.
    fn wake_satisfiable(&self) {
        let budget = self.state.borrow().permits;
        for i in 0..budget {
            let waker = match self.state.borrow().waiters.get(i) {
                Some((_, waker)) => waker.clone(),
                None => return,
            };
            waker.wake();
        }
    }
}

/// RAII permit; returns its permit on drop.
pub struct Permit {
    sem: Semaphore,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.state.borrow_mut().permits += 1;
        self.sem.wake_satisfiable();
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
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
        if at_head && st.permits >= 1 {
            st.permits -= 1;
            if self.key.is_some() {
                st.waiters.pop_front();
            }
            drop(st);
            self.key = None;
            return Poll::Ready(Permit {
                sem: self.sem.clone(),
            });
        }
        match self.key {
            None => {
                let key = st.next_key;
                st.next_key += 1;
                st.waiters.push_back((key, cx.waker().clone()));
                drop(st);
                self.key = Some(key);
            }
            Some(key) => {
                if let Ok(i) = st.waiters.binary_search_by_key(&key, |w| w.0) {
                    st.waiters[i].1.clone_from(cx.waker());
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
    fn waiters_are_served_in_arrival_order() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let sem = Semaphore::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        // Hold the one permit while three waiters park, one a tick apart.
        let held = sem.try_acquire().unwrap();
        for (tick, name) in [(1, "a"), (2, "b"), (3, "c")] {
            let (sem, h2, log) = (sem.clone(), h.clone(), log.clone());
            h.spawn(async move {
                h2.sleep(SimDuration::from_nanos(tick)).await;
                let _p = sem.acquire().await;
                log.borrow_mut().push(name);
                h2.sleep(SimDuration::from_nanos(10)).await;
            });
        }
        let h0 = h.clone();
        h.spawn(async move {
            h0.sleep(SimDuration::from_nanos(50)).await;
            drop(held);
        });
        rt.run();
        assert_eq!(*log.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sem.available(), 1);
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
        let sem = Semaphore::new(1);
        let sem2 = sem.clone();
        let h2 = h.clone();
        rt.block_on(async move {
            let held = sem2.try_acquire().unwrap();
            {
                let mut fut = Box::pin(sem2.acquire());
                // poll once to park
                std::future::poll_fn(|cx| {
                    let _ = Pin::new(&mut fut).poll(cx);
                    Poll::Ready(())
                })
                .await;
            } // dropped here
            drop(held);
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
