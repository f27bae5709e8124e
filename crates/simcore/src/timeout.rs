//! Bounding an await with a virtual-time deadline.
//!
//! [`timeout`] races a future against a [`Handle::sleep`]: the first to
//! complete wins. It is the building block of every recovery path in the
//! driver stack — a fabric read, an RPC wait, or a completion wait that
//! might never resolve (dropped delivery, severed link, crashed peer)
//! becomes a typed [`Elapsed`] instead of a simulation deadlock.
//!
//! Deterministic like everything else here: the deadline is virtual time,
//! so a timed-out schedule replays identically.

use std::future::Future;
use std::pin::Pin;
use std::task::Poll;

use crate::executor::Handle;
use crate::time::SimDuration;

/// The awaited future did not complete before the deadline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Run `fut` for at most `dur` of virtual time; `Err(Elapsed)` if the
/// deadline fires first. The future is dropped on timeout, cancelling
/// whatever it was waiting on.
///
/// `fut` is polled before the deadline's own timer is registered, so while
/// it is polled the deadline fences it: a sleep inside completes in place
/// (see the executor's module header) only if it is due before the
/// deadline, and otherwise takes the timer path and loses the race as it
/// should.
pub async fn timeout<F: Future>(
    handle: &Handle,
    dur: SimDuration,
    fut: F,
) -> Result<F::Output, Elapsed> {
    let mut fut = std::pin::pin!(fut);
    let mut sleep = handle.sleep(dur);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = handle.fenced(sleep.deadline(), || fut.as_mut().poll(cx)) {
            return Poll::Ready(Ok(v));
        }
        if Pin::new(&mut sleep).poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimRuntime;
    use crate::sync::Notify;

    #[test]
    fn completes_before_deadline() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let out = rt.block_on(async move {
            let r = timeout(&h, SimDuration::from_micros(10), async {
                h.sleep(SimDuration::from_micros(1)).await;
                7u32
            })
            .await;
            (r, h.now())
        });
        assert_eq!(out.0, Ok(7));
        assert_eq!(out.1.as_nanos(), 1_000, "won the race at its own pace");
    }

    #[test]
    fn elapses_on_a_stuck_future() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let out = rt.block_on(async move {
            let never = Notify::new();
            let r = timeout(&h, SimDuration::from_micros(10), never.notified()).await;
            (r, h.now())
        });
        assert_eq!(out.0, Err(Elapsed));
        assert_eq!(out.1.as_nanos(), 10_000, "gave up exactly at the deadline");
    }

    #[test]
    fn an_inner_cpu_work_does_not_outrun_the_deadline() {
        // Nothing else is pending, but the deadline fences the inner wait.
        let rt = SimRuntime::new();
        let h = rt.handle();
        let out = rt.block_on(async move {
            let work = h.cpu_work(SimDuration::from_nanos(500));
            let r = timeout(&h, SimDuration::from_nanos(10), work).await;
            (r, h.now().as_nanos())
        });
        assert_eq!(out, (Err(Elapsed), 10));
    }

    #[test]
    fn nested_timeouts_inner_fires_first() {
        let rt = SimRuntime::new();
        let h = rt.handle();
        let h2 = h.clone();
        let out = rt.block_on(async move {
            timeout(&h2, SimDuration::from_micros(100), async {
                let never = Notify::new();
                timeout(&h2, SimDuration::from_micros(5), never.notified()).await
            })
            .await
        });
        assert_eq!(out, Ok(Err(Elapsed)));
    }
}
