//! Crash shedding of held (delay-queued) messages, isolated from every
//! other shed path. A six-node ring chatters for three rounds under a 90%
//! geometric delay, so that by round 5 nearly every node holds queued
//! messages and nobody sends fresh ones. Round 5 then crashes holder 1,
//! crashes and recovers holder 4 in the same round, and crashes the
//! isolated node 6, which never holds anything. The counters were recorded
//! before the delayed queues moved into one flat queue.

use csn_distsim::{FaultEvent, FaultModel, Neighborhood, Outbox, Protocol, RunStats, Simulator};
use csn_graph::{Graph, NodeId};

/// Rounds in which every live node broadcasts its id.
const CHATTY_ROUNDS: u32 = 3;
/// The round whose events crash the holders.
const CRASH_ROUND: usize = 5;

/// Broadcasts the sender's id in each of its first [`CHATTY_ROUNDS`]
/// rounds since `init`. State: `(rounds stepped, messages received)`.
struct Chatter;
impl Protocol for Chatter {
    type State = (u32, u32);
    type Msg = u32;
    fn init(&self, _u: NodeId, _ctx: &Neighborhood) -> Self::State {
        (0, 0)
    }
    fn round(
        &self,
        u: NodeId,
        state: &mut Self::State,
        _ctx: &Neighborhood,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        state.1 += inbox.len() as u32;
        if state.0 < CHATTY_ROUNDS {
            out.broadcast(u as u32);
        }
        state.0 += 1;
    }
}

/// Ring 0..6 plus the isolated node 6.
fn graph() -> Graph {
    Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap()
}

/// `(stats, in_flight())` after the crash round, then at exit.
type Checkpoints = [(RunStats, usize); 2];

/// Runs with `events` fired at [`CRASH_ROUND`]; returns the shed count of
/// the crash round itself and the two checkpoints.
fn run(events: &[FaultEvent], jobs: usize) -> (usize, Checkpoints) {
    let mut faults = FaultModel { seed: 3, ..FaultModel::none().with_delay(0.9) };
    for e in events {
        faults = faults.with_event(CRASH_ROUND, e.clone());
    }
    let mut sim = Simulator::with_faults(&graph(), &Chatter, faults).with_jobs(jobs);
    for _ in 0..CRASH_ROUND {
        sim.step();
    }
    let shed_before = sim.stats().shed;
    sim.step();
    let crash = (sim.stats(), sim.in_flight());
    let stats = sim.run_until_quiet(200);
    let exit = (stats, sim.in_flight());
    for (s, in_flight) in [crash, exit] {
        assert_eq!(s.sent + s.duplicated, s.messages + s.dropped + s.shed + in_flight, "{s:?}");
    }
    (crash.0.shed - shed_before, [crash, exit])
}

fn crash_and_recover_4() -> [FaultEvent; 2] {
    [FaultEvent::Crash(4), FaultEvent::Recover(4)]
}

fn all_three() -> Vec<FaultEvent> {
    let mut events = vec![FaultEvent::Crash(1)];
    events.extend(crash_and_recover_4());
    events.push(FaultEvent::Crash(6));
    events
}

/// The combined run's checkpoints, recorded before the flat queue.
const PINNED: Checkpoints = [
    (
        RunStats {
            rounds: 6,
            sent: 38,
            messages: 9,
            dropped: 0,
            duplicated: 0,
            shed: 9,
            misrouted: 0,
            rejected_events: 0,
            retransmissions: 0,
            quiescent: false,
        },
        20,
    ),
    (
        RunStats {
            rounds: 48,
            sent: 42,
            messages: 33,
            dropped: 0,
            duplicated: 0,
            shed: 9,
            misrouted: 0,
            rejected_events: 0,
            retransmissions: 0,
            quiescent: true,
        },
        0,
    ),
];

#[test]
fn crashes_shed_exactly_the_held_messages() {
    for jobs in [1, 2] {
        // Each crash on its own: holder 1 held 4 messages, holder 4 held 5
        // (shed although it recovers in the same round), node 6 none.
        assert_eq!(run(&[FaultEvent::Crash(1)], jobs).0, 4, "jobs={jobs}");
        assert_eq!(run(&crash_and_recover_4(), jobs).0, 5, "jobs={jobs}");
        assert_eq!(run(&[FaultEvent::Crash(6)], jobs).0, 0, "jobs={jobs}");
        // All of them in one round shed the sum, and the run goes on
        // exactly as recorded.
        let (shed, got) = run(&all_three(), jobs);
        assert_eq!(shed, 9, "jobs={jobs}");
        assert_eq!(got, PINNED, "jobs={jobs}");
    }
}
