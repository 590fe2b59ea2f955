//! Simulated TCP: listeners, connections, and checkpoint-safe "repair
//! mode".
//!
//! CRIU's `TCP_REPAIR` lets it freeze established connections during a
//! checkpoint and re-establish them on restore (paper §3.3). The DCVM
//! reproduces the observable behaviour: while a server process is dumped
//! and rewritten, its connections persist inside the kernel's network
//! state; client bytes sent during the freeze window queue up and are
//! served after restore — which is exactly what produces Figure 8's
//! throughput dip-and-recover shape.

use std::collections::{BTreeMap, VecDeque};

/// Identifies one TCP connection inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Established and usable.
    Established,
    /// Frozen by a checkpoint (repair mode): data queues, nothing drains.
    Repair,
    /// Closed by either end.
    Closed,
}

/// One bidirectional byte stream.
#[derive(Debug, Clone)]
pub struct TcpConn {
    /// Connection id.
    pub id: ConnId,
    /// Server port the client connected to.
    pub port: u16,
    /// Bytes travelling client → server.
    pub to_server: VecDeque<u8>,
    /// Bytes travelling server → client.
    pub to_client: VecDeque<u8>,
    /// Lifecycle state.
    pub state: TcpState,
}

/// Kernel network state: listeners, pending accepts, live connections.
#[derive(Debug, Default)]
pub(crate) struct NetStack {
    next_conn: u64,
    /// Listening port → backlog of connections awaiting `accept`. A port
    /// listens iff it has an entry here.
    backlog: BTreeMap<u16, VecDeque<ConnId>>,
    conns: BTreeMap<ConnId, TcpConn>,
}

impl NetStack {
    pub fn listen(&mut self, port: u16) {
        self.backlog.entry(port).or_default();
    }

    pub fn is_listening(&self, port: u16) -> bool {
        self.backlog.contains_key(&port)
    }

    /// Removes the listener on `port` (rollback of a restore). Any
    /// connections already queued in the backlog are dropped with it.
    pub fn unlisten(&mut self, port: u16) {
        self.backlog.remove(&port);
    }

    /// Writes a canonical dump of the whole network state into `out` —
    /// part of [`Kernel::state_fingerprint`](crate::Kernel::state_fingerprint).
    pub fn fingerprint(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "net next_conn={}", self.next_conn);
        for port in self.backlog.keys() {
            let _ = writeln!(out, "listener {port}");
        }
        for (port, queue) in &self.backlog {
            let _ = writeln!(out, "backlog {port}:{queue:?}");
        }
        for (id, conn) in &self.conns {
            let _ = writeln!(
                out,
                "conn {} port={} state={:?} to_server={:?} to_client={:?}",
                id.0, conn.port, conn.state, conn.to_server, conn.to_client
            );
        }
    }

    /// Client-side connect: creates a connection and queues it for accept.
    pub fn connect(&mut self, port: u16) -> Option<ConnId> {
        let backlog = self.backlog.get_mut(&port)?;
        self.next_conn += 1;
        let id = ConnId(self.next_conn);
        backlog.push_back(id);
        self.conns.insert(
            id,
            TcpConn {
                id,
                port,
                to_server: VecDeque::new(),
                to_client: VecDeque::new(),
                state: TcpState::Established,
            },
        );
        Some(id)
    }

    /// Server-side accept: pops a pending connection, if any.
    pub fn accept(&mut self, port: u16) -> Option<ConnId> {
        self.backlog.get_mut(&port)?.pop_front()
    }

    /// Whether any connection awaits `accept` on the port.
    pub fn has_backlog(&self, port: u16) -> bool {
        self.backlog
            .get(&port)
            .is_some_and(|queue| !queue.is_empty())
    }

    pub fn conn(&self, id: ConnId) -> Option<&TcpConn> {
        self.conns.get(&id)
    }

    pub fn conn_mut(&mut self, id: ConnId) -> Option<&mut TcpConn> {
        self.conns.get_mut(&id)
    }

    /// Puts every connection on `port` into repair mode (checkpoint).
    pub fn enter_repair(&mut self, ids: &[ConnId]) {
        for id in ids {
            if let Some(conn) = self.conns.get_mut(id) {
                if conn.state == TcpState::Established {
                    conn.state = TcpState::Repair;
                }
            }
        }
    }

    /// Re-establishes repaired connections (restore).
    pub fn leave_repair(&mut self, ids: &[ConnId]) {
        for id in ids {
            if let Some(conn) = self.conns.get_mut(id) {
                if conn.state == TcpState::Repair {
                    conn.state = TcpState::Established;
                }
            }
        }
    }

    pub fn close(&mut self, id: ConnId) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.state = TcpState::Closed;
        }
    }

    /// Garbage-collects closed connections with no buffered data.
    pub fn reap(&mut self) {
        self.conns.retain(|_, conn| {
            conn.state != TcpState::Closed
                || !conn.to_client.is_empty()
                || !conn.to_server.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_requires_listener() {
        let mut net = NetStack::default();
        assert!(net.connect(80).is_none());
        net.listen(80);
        assert!(net.connect(80).is_some());
    }

    #[test]
    fn accept_pops_in_fifo_order() {
        let mut net = NetStack::default();
        net.listen(80);
        let a = net.connect(80).unwrap();
        let b = net.connect(80).unwrap();
        assert_eq!(net.accept(80), Some(a));
        assert_eq!(net.accept(80), Some(b));
        assert_eq!(net.accept(80), None);
    }

    #[test]
    fn repair_mode_round_trips() {
        let mut net = NetStack::default();
        net.listen(80);
        let id = net.connect(80).unwrap();
        net.enter_repair(&[id]);
        assert_eq!(net.conn(id).unwrap().state, TcpState::Repair);
        // Bytes can still be queued by the client during the freeze.
        net.conn_mut(id).unwrap().to_server.extend(b"GET /");
        net.leave_repair(&[id]);
        assert_eq!(net.conn(id).unwrap().state, TcpState::Established);
        assert_eq!(net.conn(id).unwrap().to_server.len(), 5);
    }

    #[test]
    fn reap_keeps_closed_conns_with_pending_data() {
        let mut net = NetStack::default();
        net.listen(80);
        let id = net.connect(80).unwrap();
        net.conn_mut(id).unwrap().to_client.extend(b"bye");
        net.close(id);
        net.reap();
        assert!(net.conn(id).is_some(), "pending data keeps it alive");
        net.conn_mut(id).unwrap().to_client.clear();
        net.reap();
        assert!(net.conn(id).is_none());
    }
}
