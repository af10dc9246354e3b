//! The helpers that run the protocols, which are `async fn`s.
//!
//! A protocol is straight-line code that awaits [`yield_now`] before
//! each receive. The compiler turns it into a state machine, and each
//! yield is one poll boundary. A trading window wrapped in a
//! [`FabricTask`](crate::FabricTask) advances one step per executor
//! poll. [`block_on`] runs the same future to completion in one call,
//! so the sends and receives reach the fabric in the same order either
//! way.
//!
//! Nothing here registers a waker. A receive whose message has not
//! arrived returns an error instead of waiting, so a pending protocol is
//! always ready to be polled again.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// Polls `fut` until it is ready and returns its output.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
    }
}

/// Runs two fallible protocols in lockstep: each poll polls `a` once,
/// then `b` once (skipping one that has finished), so two yielding
/// protocols advance one receive each per poll. Completes with both
/// outputs, or with the first error either returns; the other is then
/// dropped where it stands.
pub async fn try_join<A, B, TA, TB, E>(a: A, b: B) -> Result<(TA, TB), E>
where
    A: Future<Output = Result<TA, E>>,
    B: Future<Output = Result<TB, E>>,
{
    let (mut a, mut b) = (pin!(a), pin!(b));
    let (mut out_a, mut out_b) = (None, None);
    poll_fn(|cx| {
        if out_a.is_none() {
            if let Poll::Ready(out) = a.as_mut().poll(cx) {
                out_a = Some(out?);
            }
        }
        if out_b.is_none() {
            if let Poll::Ready(out) = b.as_mut().poll(cx) {
                out_b = Some(out?);
            }
        }
        match (out_a.take(), out_b.take()) {
            (Some(a), Some(b)) => Poll::Ready(Ok((a, b))),
            (a, b) => {
                (out_a, out_b) = (a, b);
                Poll::Pending
            }
        }
    })
    .await
}

/// Returns `Pending` exactly once, then completes: one poll boundary.
pub async fn yield_now() {
    let mut yielded = false;
    poll_fn(|_| {
        if yielded {
            Poll::Ready(())
        } else {
            yielded = true;
            Poll::Pending
        }
    })
    .await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_net::{NetError, PartyId, SimNetwork, Transport};

    /// A token pass around `parties` parties: party 0 seeds a counter,
    /// every party increments and forwards it, party 0 reads the total.
    async fn token_ring(net: &mut SimNetwork, parties: usize) -> Result<u8, NetError> {
        net.send(PartyId(0), PartyId(1), "token", vec![1])?;
        for at in 1..parties {
            yield_now().await;
            let env = net.recv_expect(PartyId(at), "token")?;
            let next = PartyId((at + 1) % parties);
            net.send(PartyId(at), next, "token", vec![env.payload[0] + 1])?;
        }
        yield_now().await;
        Ok(net.recv_expect(PartyId(0), "token")?.payload[0])
    }

    #[test]
    fn block_on_runs_a_ring_to_completion() {
        let n = 5;
        let mut net = SimNetwork::new(n);
        assert_eq!(block_on(token_ring(&mut net, n)), Ok(n as u8));
        assert_eq!(net.pending(), 0, "every message consumed");
        assert_eq!(net.stats().total_messages, n as u64);
    }

    #[test]
    fn each_yield_is_one_poll() {
        let mut net = SimNetwork::new(3);
        let mut ring = pin!(token_ring(&mut net, 3));
        let mut cx = Context::from_waker(Waker::noop());
        // Three receives, one yield before each: three pending polls.
        for _ in 0..3 {
            assert!(ring.as_mut().poll(&mut cx).is_pending());
        }
        assert_eq!(ring.as_mut().poll(&mut cx), Poll::Ready(Ok(3)));
    }

    #[test]
    fn try_join_polls_both_once_per_poll() {
        // Rings of 3 and 5 receives: the join is pending as long as the
        // longer one, and each poll advances each unfinished ring by one
        // receive.
        let (mut a, mut b) = (SimNetwork::new(3), SimNetwork::new(5));
        let mut joined = pin!(try_join(token_ring(&mut a, 3), token_ring(&mut b, 5)));
        let mut cx = Context::from_waker(Waker::noop());
        for _ in 0..5 {
            assert!(joined.as_mut().poll(&mut cx).is_pending());
        }
        assert_eq!(joined.as_mut().poll(&mut cx), Poll::Ready(Ok((3, 5))));
    }

    #[test]
    fn try_join_ends_in_the_first_error() {
        // The second ring's second receive finds nothing: the join ends
        // there, with the first ring still mid-way.
        let mut a = SimNetwork::new(5);
        let mut b = SimNetwork::new(3);
        let lossy = async {
            b.send(PartyId(0), PartyId(1), "token", vec![1])?;
            yield_now().await;
            b.recv_expect(PartyId(1), "token")?;
            yield_now().await;
            b.recv_expect(PartyId(2), "token").map(|env| env.payload[0])
        };
        let mut joined = pin!(try_join(token_ring(&mut a, 5), lossy));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(joined.as_mut().poll(&mut cx).is_pending());
        assert!(joined.as_mut().poll(&mut cx).is_pending());
        assert!(matches!(
            joined.as_mut().poll(&mut cx),
            Poll::Ready(Err(NetError::Empty { .. }))
        ));
    }

    #[test]
    fn yield_now_is_pending_exactly_once() {
        let mut fut = pin!(yield_now());
        let mut cx = Context::from_waker(Waker::noop());
        assert_eq!(fut.as_mut().poll(&mut cx), Poll::Pending);
        assert_eq!(fut.as_mut().poll(&mut cx), Poll::Ready(()));
    }

    #[test]
    fn missing_message_surfaces_as_empty() {
        // Party 0 seeds a token nobody forwards: the second receive
        // finds an empty mailbox and the protocol ends in its error.
        let mut net = SimNetwork::new(3);
        let result = block_on(async {
            net.send(PartyId(0), PartyId(1), "token", vec![1])?;
            yield_now().await;
            net.recv_expect(PartyId(1), "token")?;
            yield_now().await;
            net.recv_expect(PartyId(2), "token")
        });
        assert!(matches!(result, Err(NetError::Empty { .. })));
    }
}
