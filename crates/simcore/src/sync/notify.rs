//! Edge-coalescing notification, used to model doorbells and memory
//! polling in the simulation: a waiter parks until somebody signals, and a
//! signal delivered while nobody waits is retained as a single permit (so
//! back-to-back doorbell writes coalesce, like a real doorbell register).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

#[derive(Default)]
struct NotifyState {
    /// One stored permit: a notify that arrived with no waiter present.
    permit: bool,
    waiters: Vec<(u64, Waker)>,
    next_waiter: u64,
}

/// Single-threaded async notification primitive with permit coalescing.
#[derive(Clone, Default)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Notify {
    /// A notify with no waiters and no stored permit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake one waiter, or store a (single, coalesced) permit if none waits.
    pub fn notify_one(&self) {
        let mut st = self.state.borrow_mut();
        if st.waiters.is_empty() {
            st.permit = true;
        } else {
            let (_, w) = st.waiters.remove(0);
            drop(st);
            w.wake();
        }
    }

    /// Wake every current waiter. Does not store a permit.
    pub fn notify_all(&self) {
        let waiters = {
            let mut st = self.state.borrow_mut();
            std::mem::take(&mut st.waiters)
        };
        for (_, w) in waiters {
            w.wake();
        }
    }

    /// Wait until notified (or immediately consume a stored permit).
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            key: None,
            done: false,
        }
    }

    /// Number of tasks currently parked on this notify (diagnostic).
    pub fn waiter_count(&self) -> usize {
        self.state.borrow().waiters.len()
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    key: Option<u64>,
    done: bool,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.done {
            return Poll::Ready(());
        }
        let mut st = self.notify.state.borrow_mut();
        match self.key {
            None => {
                // First poll: consume a permit if available, otherwise park.
                if st.permit {
                    st.permit = false;
                    drop(st);
                    self.done = true;
                    return Poll::Ready(());
                }
                let key = st.next_waiter;
                st.next_waiter += 1;
                st.waiters.push((key, cx.waker().clone()));
                drop(st);
                self.key = Some(key);
                Poll::Pending
            }
            Some(key) => {
                // Re-polled: we are done once our entry was removed by a
                // notify; otherwise refresh the stored waker.
                if let Some(slot) = st.waiters.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = cx.waker().clone();
                    Poll::Pending
                } else {
                    drop(st);
                    self.done = true;
                    Poll::Ready(())
                }
            }
        }
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        // Cancelled while parked: deregister so a notify is not lost on us.
        if let Some(key) = self.key {
            if !self.done {
                let mut st = self.notify.state.borrow_mut();
                st.waiters.retain(|(k, _)| *k != key);
            }
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
    fn permit_is_coalesced() {
        let rt = SimRuntime::new();
        let n = Notify::new();
        n.notify_one();
        n.notify_one(); // coalesces with the first
        let n2 = n.clone();
        let h = rt.handle();
        rt.block_on(async move {
            n2.notified().await; // consumes the stored permit
            let waited = Rc::new(Cell::new(false));
            let w2 = waited.clone();
            let n3 = n2.clone();
            let task = h.spawn(async move {
                n3.notified().await;
                w2.set(true);
            });
            h.sleep(SimDuration::from_nanos(10)).await;
            assert!(!waited.get(), "second permit must have been coalesced away");
            n2.notify_one();
            task.await;
            assert!(waited.get());
        });
    }

    #[test]
    fn notify_one_wakes_in_fifo_order() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let n = Notify::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["first", "second"] {
            let n = n.clone();
            let log = log.clone();
            h.spawn(async move {
                n.notified().await;
                log.borrow_mut().push(name);
            });
        }
        let n2 = n.clone();
        let h2 = h.clone();
        rt.block_on(async move {
            h2.sleep(SimDuration::from_nanos(1)).await;
            n2.notify_one();
            h2.sleep(SimDuration::from_nanos(1)).await;
            n2.notify_one();
            h2.sleep(SimDuration::from_nanos(1)).await;
        });
        assert_eq!(*log.borrow(), vec!["first", "second"]);
    }

    #[test]
    fn notify_all_wakes_everyone_without_permit() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let n = Notify::new();
        let count = Rc::new(Cell::new(0));
        for _ in 0..3 {
            let n = n.clone();
            let count = count.clone();
            h.spawn(async move {
                n.notified().await;
                count.set(count.get() + 1);
            });
        }
        let n2 = n.clone();
        let h2 = h.clone();
        rt.block_on(async move {
            h2.sleep(SimDuration::from_nanos(1)).await;
            n2.notify_all();
            h2.sleep(SimDuration::from_nanos(1)).await;
        });
        assert_eq!(count.get(), 3);
        // notify_all must not leave a permit behind
        assert!(!n.state.borrow().permit);
    }

    #[test]
    fn dropped_waiter_deregisters() {
        let rt = SimRuntime::new();
        let n = Notify::new();
        let n2 = n.clone();
        let h = rt.handle();
        rt.block_on(async move {
            {
                let mut fut = Box::pin(n2.notified());
                // Poll once so it parks, then drop it.
                futures_poll_once(&mut fut).await;
                assert_eq!(n2.waiter_count(), 1);
            }
            assert_eq!(n2.waiter_count(), 0);
            h.sleep(SimDuration::from_nanos(1)).await;
        });
    }

    /// Poll a future exactly once, discarding the result.
    async fn futures_poll_once<F: Future + Unpin>(fut: &mut F) {
        use std::task::Poll;
        let mut once = Some(fut);
        std::future::poll_fn(move |cx| {
            if let Some(f) = once.take() {
                let _ = Pin::new(f).poll(cx);
            }
            Poll::Ready(())
        })
        .await
    }
}
