//! The poll-able protocol state machine shape and its blocking driver.
//!
//! A [`ProtocolStateMachine`] holds a protocol's progress as explicit
//! state: feed it the one message it says it is [`expecting`]
//! (`ProtocolStateMachine::expecting`) and it returns a [`Transition`] —
//! keep going, put messages on the fabric, or done. Nothing ever blocks
//! inside a machine, so one thread can interleave any number of them;
//! and because a machine performs its sends and receives in exactly the
//! order a blocking driver would, [`drive`] turns any machine back into
//! a classic synchronous protocol run, bit for bit.

use pem_net::{Envelope, NetError, PartyId, Transport};

/// A message a state machine wants placed on the fabric.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// Sending party.
    pub from: PartyId,
    /// Receiving party.
    pub to: PartyId,
    /// Protocol-phase label.
    pub label: &'static str,
    /// Serialized payload.
    pub payload: Vec<u8>,
}

/// What a machine did with the message it was fed.
#[derive(Debug)]
pub enum Transition<O> {
    /// Message consumed; nothing to send, protocol not finished.
    Continue,
    /// Message consumed; place these messages on the fabric (in order).
    Send(Vec<Outbound>),
    /// Protocol complete — the machine must not be fed again.
    Done(O),
}

/// A protocol instance as explicit state instead of a blocked stack.
///
/// # Contract
///
/// * [`initial_messages`](Self::initial_messages) is called exactly once,
///   before any delivery, and returns the protocol's kickoff sends.
/// * While the protocol is running, [`expecting`](Self::expecting)
///   names the `(recipient, label)` of the one message that can make
///   progress; after [`Transition::Done`] it returns `None`.
/// * [`on_message`](Self::on_message) is fed exactly the expected
///   message (drivers use `Transport::recv_expect`, so label mismatches
///   and empty mailboxes surface as the same [`NetError`] classes a
///   blocking driver would see).
pub trait ProtocolStateMachine {
    /// What the protocol produces when it completes.
    type Output;
    /// Error type; must absorb transport errors.
    type Error: From<NetError>;

    /// The kickoff sends, performed before any delivery.
    ///
    /// # Errors
    ///
    /// Protocol-specific setup failures.
    fn initial_messages(&mut self) -> Result<Vec<Outbound>, Self::Error>;

    /// The `(recipient, label)` of the next message the machine can make
    /// progress on, or `None` once the protocol has completed.
    fn expecting(&self) -> Option<(PartyId, &'static str)>;

    /// Feeds the machine the message it was expecting.
    ///
    /// # Errors
    ///
    /// Protocol-specific failures (decode, validation, crypto).
    fn on_message(&mut self, env: Envelope) -> Result<Transition<Self::Output>, Self::Error>;
}

/// Performs a machine's kickoff sends on a transport.
///
/// # Errors
///
/// Setup or send failures.
pub fn kickoff<T, M>(net: &mut T, machine: &mut M) -> Result<(), M::Error>
where
    T: Transport + ?Sized,
    M: ProtocolStateMachine,
{
    for out in machine.initial_messages()? {
        net.send(out.from, out.to, out.label, out.payload)?;
    }
    Ok(())
}

/// Advances a machine by exactly one message: receive what it expects,
/// feed it, perform any resulting sends. Returns the protocol output
/// when this step completed it.
///
/// # Errors
///
/// Receive failures ([`NetError::Empty`] when the expected message never
/// arrived — e.g. dropped in flight — or [`NetError::UnexpectedLabel`])
/// and protocol failures from [`ProtocolStateMachine::on_message`].
///
/// # Panics
///
/// Panics if the machine is not expecting anything (stepping a completed
/// machine is a driver bug).
pub fn step<T, M>(net: &mut T, machine: &mut M) -> Result<Option<M::Output>, M::Error>
where
    T: Transport + ?Sized,
    M: ProtocolStateMachine,
{
    let (to, label) = machine
        .expecting()
        .expect("stepped a state machine that is not expecting any message");
    let env = net.recv_expect(to, label)?;
    match machine.on_message(env)? {
        Transition::Continue => Ok(None),
        Transition::Send(outs) => {
            for out in outs {
                net.send(out.from, out.to, out.label, out.payload)?;
            }
            Ok(None)
        }
        Transition::Done(output) => Ok(Some(output)),
    }
}

/// Polls a machine to completion on a transport: [`kickoff`], then
/// [`step`] until the machine is done, so sends and receives hit the
/// fabric in exactly the order a poll-driven run performs them.
///
/// # Errors
///
/// As [`step`] / [`kickoff`].
pub fn drive<T, M>(net: &mut T, machine: &mut M) -> Result<M::Output, M::Error>
where
    T: Transport + ?Sized,
    M: ProtocolStateMachine,
{
    kickoff(net, machine)?;
    loop {
        if let Some(output) = step(net, machine)? {
            return Ok(output);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_net::SimNetwork;

    /// A ring token pass as a machine: party 0 seeds a counter, every
    /// party increments and forwards, party 0 collects the total.
    struct TokenRing {
        parties: usize,
        hops: usize,
        done: bool,
    }

    impl ProtocolStateMachine for TokenRing {
        type Output = u8;
        type Error = NetError;

        fn initial_messages(&mut self) -> Result<Vec<Outbound>, NetError> {
            Ok(vec![Outbound {
                from: PartyId(0),
                to: PartyId(1),
                label: "token",
                payload: vec![1],
            }])
        }

        fn expecting(&self) -> Option<(PartyId, &'static str)> {
            if self.done {
                None
            } else {
                Some((PartyId((self.hops + 1) % self.parties), "token"))
            }
        }

        fn on_message(&mut self, env: Envelope) -> Result<Transition<u8>, NetError> {
            self.hops += 1;
            if env.to == PartyId(0) {
                self.done = true;
                return Ok(Transition::Done(env.payload[0]));
            }
            let next = PartyId((env.to.0 + 1) % self.parties);
            Ok(Transition::Send(vec![Outbound {
                from: env.to,
                to: next,
                label: "token",
                payload: vec![env.payload[0] + 1],
            }]))
        }
    }

    #[test]
    fn drive_runs_a_ring_to_completion() {
        let n = 5;
        let mut net = SimNetwork::new(n);
        let mut machine = TokenRing {
            parties: n,
            hops: 0,
            done: false,
        };
        let total = drive(&mut net, &mut machine).expect("ring");
        assert_eq!(total, n as u8);
        assert_eq!(net.pending(), 0, "every message consumed");
        assert_eq!(net.stats().total_messages, n as u64);
        assert!(machine.expecting().is_none(), "machine reports done");
    }

    #[test]
    fn step_advances_one_message_at_a_time() {
        let n = 3;
        let mut net = SimNetwork::new(n);
        let mut machine = TokenRing {
            parties: n,
            hops: 0,
            done: false,
        };
        kickoff(&mut net, &mut machine).expect("kickoff");
        assert_eq!(step(&mut net, &mut machine).expect("hop 1"), None);
        assert_eq!(step(&mut net, &mut machine).expect("hop 2"), None);
        assert_eq!(step(&mut net, &mut machine).expect("close"), Some(3));
    }

    #[test]
    fn missing_message_surfaces_as_empty() {
        // No kickoff: the expected message never exists.
        let mut net = SimNetwork::new(3);
        let mut machine = TokenRing {
            parties: 3,
            hops: 0,
            done: false,
        };
        assert!(matches!(
            step(&mut net, &mut machine),
            Err(NetError::Empty { .. })
        ));
    }
}
