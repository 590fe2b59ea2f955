//! The closed-loop client: one host thread keeps a fixed number of
//! requests in flight, each on its own connection, sends the next one
//! on a connection only after its reply is drained, and checks every
//! reply against the reply the command must get.

use crate::trace::{Recorder, SpanId, ROOT};
use dynacut_apps::redis;
use dynacut_vm::{ClientConn, Kernel, RunOutcome};
use std::time::Instant;

/// Distinct keys. The guest's table holds eight slots, so no SET can
/// ever answer `-ERR full`.
pub const KEYS: usize = 8;

/// Simulated nanoseconds a request may take before it counts as failed.
const REQUEST_DEADLINE_NS: u64 = 10_000_000;

/// SplitMix64: the seeded generator every input is drawn from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and one stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One client command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// `PING`.
    Ping,
    /// `GET k<i>`.
    Get(usize),
    /// `SET k<i> <value of k<i>>`.
    Set(usize),
}

/// The traffic the repository's own redis drivers send
/// (`exercise_redis_workload` in `crates/bench`): SET, GET and PING in
/// turn, 1:1:1, here over seeded keys out of [`KEYS`].
pub fn mix(rng: &mut Rng, count: usize) -> Vec<Cmd> {
    (0..count)
        .map(|index| match index % 3 {
            0 => Cmd::Set(rng.below(KEYS)),
            1 => Cmd::Get(rng.below(KEYS)),
            _ => Cmd::Ping,
        })
        .collect()
}

/// What every reply must be. Each key only ever holds one seeded value,
/// so a GET has exactly two correct answers (the value, or nil) on any
/// replica of a fleet; on a single process the model also knows which.
#[derive(Debug, Clone)]
pub struct Model {
    values: Vec<String>,
    /// Whether every request reaches one process, so the model knows
    /// exactly which keys are stored.
    exact: bool,
    stored: [bool; KEYS],
    /// SET is redirected to the error path: it must answer
    /// `-ERR blocked`.
    pub set_blocked: bool,
}

impl Model {
    /// A model with seeded values; `exact` for a single process.
    pub fn new(rng: &mut Rng, exact: bool) -> Self {
        Model {
            values: (0..KEYS)
                .map(|_| format!("v{:08x}", rng.next_u64() as u32))
                .collect(),
            exact,
            stored: [false; KEYS],
            set_blocked: false,
        }
    }

    /// The request bytes for a command.
    pub fn request(&self, cmd: Cmd) -> Vec<u8> {
        match cmd {
            Cmd::Ping => b"PING\n".to_vec(),
            Cmd::Get(key) => format!("GET k{key}\n").into_bytes(),
            Cmd::Set(key) => format!("SET k{key} {}\n", self.values[key]).into_bytes(),
        }
    }

    /// Checks a complete reply and advances the model; `false` on a
    /// wrong reply.
    pub fn check(&mut self, cmd: Cmd, reply: &[u8]) -> bool {
        match cmd {
            Cmd::Ping => reply == b"+PONG\n",
            Cmd::Set(_) if self.set_blocked => reply == redis::ERR_BLOCKED,
            Cmd::Set(key) => {
                let ok = reply == b"+OK\n";
                self.stored[key] |= ok;
                ok
            }
            Cmd::Get(key) => {
                let value = reply.strip_suffix(b"\n") == Some(self.values[key].as_bytes());
                let nil = reply == b"$-1\n";
                if self.exact {
                    if self.stored[key] {
                        value
                    } else {
                        nil
                    }
                } else {
                    value || nil
                }
            }
        }
    }
}

/// What a client run did.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests with an empty, late or wrong reply.
    pub failed: u64,
    /// Host-wall latency of every request in the order they were sent,
    /// from its first client call to its reply drained, in
    /// microseconds; NaN for a failed request. Request `i` of one seed
    /// is the same request in every episode, so episodes line up.
    pub latencies_us: Vec<f64>,
}

#[derive(Debug)]
struct Inflight {
    cmd: Cmd,
    id: u32,
    /// Index of this request's entry in [`Tally::latencies_us`].
    index: usize,
    started: Instant,
    deadline_ns: u64,
    reply: Vec<u8>,
    span: SpanId,
}

#[derive(Debug, Default)]
struct Slot {
    conn: Option<ClientConn>,
    sent_on_conn: u32,
    inflight: Option<Inflight>,
}

/// A closed-loop client over a fixed number of connections.
#[derive(Debug)]
pub struct Client {
    port: u16,
    reconnect_every: u32,
    slots: Vec<Slot>,
    next_id: u32,
}

impl Client {
    /// `in_flight` connections to `port`, each reconnecting after
    /// `reconnect_every` requests (1: a fresh connection per request).
    pub fn new(port: u16, in_flight: usize, reconnect_every: u32) -> Self {
        Client {
            port,
            reconnect_every: reconnect_every.max(1),
            slots: (0..in_flight.max(1)).map(|_| Slot::default()).collect(),
            next_id: 0,
        }
    }

    /// Runs `cmds` to completion in a closed loop, pumping the kernel
    /// in its own serve-pump chunks, and checks every reply.
    pub fn run(
        &mut self,
        kernel: &mut Kernel,
        cmds: &[Cmd],
        model: &mut Model,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) {
        let chunk = kernel.pump_chunk_ns();
        let mut pending = cmds.iter().copied();
        loop {
            let mut busy = false;
            for index in 0..self.slots.len() {
                if self.slots[index].inflight.is_none() {
                    if let Some(cmd) = pending.next() {
                        self.start(index, kernel, cmd, model, rec, tally);
                    }
                }
                busy |= self.slots[index].inflight.is_some();
            }
            if !busy {
                return;
            }
            let clock = kernel.clock_ns();
            let outcome = rec.time("vm.run_for", ROOT, 0, || kernel.run_for(chunk));
            // Once every guest has exited the clock stops, so neither a
            // reply nor a deadline can come: fail what is in flight.
            let stalled = outcome == RunOutcome::AllExited || kernel.clock_ns() == clock;
            for index in 0..self.slots.len() {
                self.poll(index, kernel, model, rec, tally, stalled);
            }
        }
    }

    /// Closes every open connection.
    pub fn close_all(&mut self, kernel: &mut Kernel, rec: &mut Recorder) {
        for slot in &mut self.slots {
            if let Some(conn) = slot.conn.take() {
                let _ = rec.time("vm.client_close", ROOT, 0, || kernel.client_close(conn));
            }
        }
    }

    fn start(
        &mut self,
        index: usize,
        kernel: &mut Kernel,
        cmd: Cmd,
        model: &Model,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) {
        let started = Instant::now();
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        tally.attempted += 1;
        let sample = tally.latencies_us.len();
        tally.latencies_us.push(f64::NAN);
        let span = rec.open("request", ROOT, id, started);
        let port = self.port;
        let slot = &mut self.slots[index];
        let conn = match slot.conn {
            Some(conn) => conn,
            None => match rec.time("vm.client_connect", span, id, || {
                kernel.client_connect(port)
            }) {
                Ok(conn) => {
                    slot.conn = Some(conn);
                    slot.sent_on_conn = 0;
                    conn
                }
                Err(_) => {
                    tally.failed += 1;
                    rec.close(span, Instant::now());
                    return;
                }
            },
        };
        let bytes = model.request(cmd);
        if rec
            .time("vm.client_send", span, id, || {
                kernel.client_send(conn, &bytes)
            })
            .is_err()
        {
            tally.failed += 1;
            slot.conn = None;
            rec.close(span, Instant::now());
            return;
        }
        slot.sent_on_conn += 1;
        slot.inflight = Some(Inflight {
            cmd,
            id,
            index: sample,
            started,
            deadline_ns: kernel.clock_ns().saturating_add(REQUEST_DEADLINE_NS),
            reply: Vec::new(),
            span,
        });
    }

    fn poll(
        &mut self,
        index: usize,
        kernel: &mut Kernel,
        model: &mut Model,
        rec: &mut Recorder,
        tally: &mut Tally,
        stalled: bool,
    ) {
        let reconnect_every = self.reconnect_every;
        let slot = &mut self.slots[index];
        let (Some(conn), Some(inflight)) = (slot.conn, slot.inflight.as_mut()) else {
            return;
        };
        let received = rec.time("vm.client_recv", inflight.span, inflight.id, || {
            kernel.client_recv(conn)
        });
        let ok = match received {
            Ok(bytes) => {
                inflight.reply.extend_from_slice(&bytes);
                if !inflight.reply.ends_with(b"\n") {
                    if !stalled && kernel.clock_ns() < inflight.deadline_ns {
                        return;
                    }
                    false
                } else {
                    model.check(inflight.cmd, &inflight.reply)
                }
            }
            Err(_) => false,
        };
        let done = Instant::now();
        let inflight = slot
            .inflight
            .take()
            .expect("polled slot has a request in flight");
        if ok {
            let elapsed = done.saturating_duration_since(inflight.started);
            tally.latencies_us[inflight.index] = elapsed.as_nanos() as f64 / 1e3;
        } else {
            tally.failed += 1;
        }
        // A failed connection is dropped; a healthy one is closed once
        // it has carried its share of requests.
        if !ok || slot.sent_on_conn >= reconnect_every {
            if let Some(conn) = slot.conn.take() {
                let _ = rec.time("vm.client_close", inflight.span, inflight.id, || {
                    kernel.client_close(conn)
                });
            }
        }
        rec.close(inflight.span, Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_and_values_repeat_per_seed() {
        let a = mix(&mut Rng::new(7, 1), 64);
        assert_eq!(a, mix(&mut Rng::new(7, 1), 64));
        assert_ne!(a, mix(&mut Rng::new(8, 1), 64));
        for (index, cmd) in a.iter().enumerate() {
            let kind = match cmd {
                Cmd::Set(_) => 0,
                Cmd::Get(_) => 1,
                Cmd::Ping => 2,
            };
            assert_eq!(kind, index % 3, "SET, GET and PING in turn");
        }
        let model = Model::new(&mut Rng::new(7, 2), true);
        assert_eq!(model.values, Model::new(&mut Rng::new(7, 2), true).values);
        assert!(model.values.iter().all(|v| v.len() < 48));
    }

    #[test]
    fn exact_model_tracks_stored_keys_and_blocking() {
        let mut model = Model::new(&mut Rng::new(1, 2), true);
        let value = format!("{}\n", model.values[3]);
        assert!(model.check(Cmd::Get(3), b"$-1\n"));
        assert!(!model.check(Cmd::Get(3), value.as_bytes()));
        assert!(model.check(Cmd::Set(3), b"+OK\n"));
        assert!(model.check(Cmd::Get(3), value.as_bytes()));
        assert!(!model.check(Cmd::Get(3), b"$-1\n"));
        model.set_blocked = true;
        assert!(!model.check(Cmd::Set(4), b"+OK\n"));
        assert!(model.check(Cmd::Set(4), b"-ERR blocked\n"));
        assert!(
            model.check(Cmd::Get(4), b"$-1\n"),
            "a blocked SET stores nothing"
        );
        assert!(model.check(Cmd::Ping, b"+PONG\n"));
        assert!(!model.check(Cmd::Ping, b""));
    }

    #[test]
    fn fleet_model_accepts_value_or_nil_only() {
        let mut model = Model::new(&mut Rng::new(1, 2), false);
        let value = format!("{}\n", model.values[0]);
        assert!(model.check(Cmd::Get(0), b"$-1\n"));
        assert!(model.check(Cmd::Get(0), value.as_bytes()));
        assert!(!model.check(Cmd::Get(0), b"vother\n"));
        assert!(!model.check(Cmd::Get(0), b""));
    }

    #[test]
    fn an_exited_guest_fails_its_requests_instead_of_hanging() {
        let libc = dynacut_apps::libc::guest_libc();
        let spec = dynacut_vm::LoadSpec::with_libs(redis::image(&libc), vec![libc]);
        let mut kernel = Kernel::new();
        kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
        let pid = kernel.spawn(&spec).unwrap();
        kernel
            .run_until_event(dynacut_apps::EVENT_READY, 500_000_000)
            .expect("redis initializes");
        // The kill lands in the first pump slice, after the first
        // requests are connected and sent.
        kernel
            .post_signal(pid, dynacut_vm::Signal::Sigkill)
            .unwrap();
        let mut model = Model::new(&mut Rng::new(1, 2), true);
        let cmds = mix(&mut Rng::new(1, 1), 6);
        let mut tally = Tally::default();
        Client::new(redis::PORT, 2, 8).run(
            &mut kernel,
            &cmds,
            &mut model,
            &mut Recorder::new(false),
            &mut tally,
        );
        assert!(kernel.exit_status(pid).is_some());
        assert_eq!((tally.attempted, tally.failed), (6, 6));
        assert!(tally.latencies_us.iter().all(|v| v.is_nan()));
    }
}
