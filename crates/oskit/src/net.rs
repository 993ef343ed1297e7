//! The simulated network: scripted client connections.
//!
//! A workload (e.g. the httperf-like generator) scripts each client as a
//! sequence of *packets* (byte chunks). The kernel releases packets one
//! `select()` pump at a time, so an event-driven server sees the same
//! readiness dance it would on a real socket: `select` reports the fd,
//! `read` drains the packet (possibly partially), the next packet arrives
//! only after another `select`. This is the non-determinism the paper's
//! selective syscall logging targets.

use std::collections::VecDeque;

/// A scripted client connection.
#[derive(Debug, Clone)]
pub struct ClientScript {
    /// Packets the client sends, in order.
    pub packets: Vec<Vec<u8>>,
    /// Whether the client half-closes after the last packet (server sees
    /// EOF, i.e. `read` returning 0). When false, a drained connection
    /// reads as would-block (-1).
    pub close_after: bool,
}

impl ClientScript {
    /// A client that sends one request and closes.
    pub fn oneshot(data: Vec<u8>) -> Self {
        ClientScript {
            packets: vec![data],
            close_after: true,
        }
    }
}

/// Server-side state of one accepted connection.
#[derive(Debug, Clone)]
pub struct Conn {
    /// Remaining packets not yet arrived.
    pub pending_packets: VecDeque<Vec<u8>>,
    /// Bytes of the currently arrived packet not yet read.
    pub readable: VecDeque<u8>,
    /// Whether the client closes after the last packet.
    pub close_after: bool,
    /// Bytes the server wrote back (captured for verification).
    pub outbox: Vec<u8>,
    /// Total client bytes consumed by the server so far.
    pub consumed: usize,
    /// True once the server called `close` on this fd.
    pub closed_by_server: bool,
}

impl Conn {
    /// Creates connection state from a script.
    pub fn new(script: ClientScript) -> Self {
        Conn {
            pending_packets: script.packets.into(),
            readable: VecDeque::new(),
            close_after: script.close_after,
            outbox: Vec::new(),
            consumed: 0,
            closed_by_server: false,
        }
    }

    /// True if a `read` would return data or EOF right now.
    pub fn is_readable(&self) -> bool {
        if self.closed_by_server {
            return false;
        }
        !self.readable.is_empty() || (self.pending_packets.is_empty() && self.close_after)
    }

    /// True if all client data was consumed.
    pub fn drained(&self) -> bool {
        self.readable.is_empty() && self.pending_packets.is_empty()
    }

    /// Delivers the next packet if the previous one was fully read
    /// (called from the `select` pump). Returns true if a packet arrived.
    pub fn pump(&mut self) -> bool {
        if self.readable.is_empty() && !self.closed_by_server {
            if let Some(p) = self.pending_packets.pop_front() {
                self.readable.extend(p);
                return true;
            }
        }
        false
    }

    /// Reads up to `n` bytes. Returns the bytes, or `None` for
    /// would-block, or `Some(empty)` for EOF.
    pub fn read(&mut self, n: usize) -> Option<Vec<u8>> {
        if !self.readable.is_empty() {
            let take = n.min(self.readable.len());
            self.consumed += take;
            return Some(self.readable.drain(..take).collect());
        }
        if self.pending_packets.is_empty() && self.close_after {
            return Some(Vec::new()); // EOF
        }
        None // would block
    }
}

/// The listener: scripted clients waiting to connect plus accepted conns.
#[derive(Debug, Clone, Default)]
pub struct NetState {
    /// Scripted clients not yet connected.
    pub backlog: VecDeque<ClientScript>,
    /// How many clients may be connecting simultaneously.
    pub arrival_window: usize,
    /// Clients that have "arrived" and can be accepted.
    pub arrived: VecDeque<ClientScript>,
    /// Accepted connections by connection index.
    pub conns: Vec<Conn>,
    /// Count of connections fully served (closed by server).
    pub served: usize,
    /// Indices of the accepted, unclosed connections, ascending: the
    /// pump and the liveness queries cost O(live), not O(accepted).
    live: Vec<usize>,
}

impl NetState {
    /// Creates network state for a scripted workload.
    pub fn new(clients: Vec<ClientScript>, arrival_window: usize) -> Self {
        NetState {
            backlog: clients.into(),
            arrival_window: arrival_window.max(1),
            arrived: VecDeque::new(),
            conns: Vec::new(),
            served: 0,
            live: Vec::new(),
        }
    }

    /// Number of live (accepted, unclosed) connections.
    pub fn live_conns(&self) -> usize {
        self.live.len()
    }

    /// The `select` pump: lets clients arrive (bounded by the window) and
    /// delivers one pending packet per drained connection.
    pub fn pump(&mut self) {
        while self.arrived.len() + self.live_conns() < self.arrival_window {
            match self.backlog.pop_front() {
                Some(c) => self.arrived.push_back(c),
                None => break,
            }
        }
        for &i in &self.live {
            self.conns[i].pump();
        }
    }

    /// True when every scripted client has been fully served.
    pub fn all_served(&self) -> bool {
        self.backlog.is_empty() && self.arrived.is_empty() && self.live_conns() == 0
    }

    /// Accepts the next arrived client, returning its connection index.
    pub fn accept(&mut self) -> Option<usize> {
        let script = self.arrived.pop_front()?;
        self.conns.push(Conn::new(script));
        let idx = self.conns.len() - 1;
        self.live.push(idx);
        Some(idx)
    }

    /// Marks a connection closed by the server.
    pub fn close(&mut self, idx: usize) -> bool {
        if let Some(c) = self.conns.get_mut(idx) {
            if !c.closed_by_server {
                c.closed_by_server = true;
                self.served += 1;
                if let Ok(at) = self.live.binary_search(&idx) {
                    self.live.remove(at);
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_packet_client() -> ClientScript {
        ClientScript {
            packets: vec![b"GET /".to_vec(), b" HTTP/1.0\r\n\r\n".to_vec()],
            close_after: true,
        }
    }

    #[test]
    fn packets_arrive_one_pump_at_a_time() {
        let mut net = NetState::new(vec![two_packet_client()], 1);
        net.pump();
        let idx = net.accept().unwrap();
        assert!(!net.conns[idx].is_readable()); // packet not yet delivered
        net.pump();
        assert!(net.conns[idx].is_readable());
        let data = net.conns[idx].read(1024).unwrap();
        assert_eq!(data, b"GET /");
        // Second packet needs another pump.
        assert_eq!(net.conns[idx].read(1024), None);
        net.pump();
        assert_eq!(net.conns[idx].read(1024).unwrap(), b" HTTP/1.0\r\n\r\n");
        // Then EOF (close_after).
        assert_eq!(net.conns[idx].read(1024).unwrap(), b"");
    }

    #[test]
    fn partial_reads_drain_packet() {
        let mut net = NetState::new(vec![ClientScript::oneshot(b"abcdef".to_vec())], 1);
        net.pump();
        let idx = net.accept().unwrap();
        net.pump();
        assert_eq!(net.conns[idx].read(2).unwrap(), b"ab");
        assert_eq!(net.conns[idx].read(3).unwrap(), b"cde");
        assert_eq!(net.conns[idx].read(10).unwrap(), b"f");
        assert_eq!(net.conns[idx].read(10).unwrap(), b""); // EOF
    }

    #[test]
    fn arrival_window_limits_concurrency() {
        let clients = vec![
            ClientScript::oneshot(b"a".to_vec()),
            ClientScript::oneshot(b"b".to_vec()),
            ClientScript::oneshot(b"c".to_vec()),
        ];
        let mut net = NetState::new(clients, 2);
        net.pump();
        assert_eq!(net.arrived.len(), 2);
        let i0 = net.accept().unwrap();
        let i1 = net.accept().unwrap();
        assert!(net.accept().is_none()); // third not arrived yet
        net.close(i0);
        net.close(i1);
        net.pump();
        assert_eq!(net.arrived.len(), 1);
    }

    #[test]
    fn all_served_detects_completion() {
        let mut net = NetState::new(vec![ClientScript::oneshot(b"x".to_vec())], 1);
        assert!(!net.all_served());
        net.pump();
        let idx = net.accept().unwrap();
        net.pump();
        net.conns[idx].read(10);
        net.close(idx);
        assert!(net.all_served());
        assert_eq!(net.served, 1);
    }

    /// A server that accepts whatever arrived, drains one packet per
    /// live connection per step and closes at EOF — in an order that
    /// does not follow the accept order — checked after every operation
    /// against a scan of every connection ever accepted.
    #[test]
    fn live_index_matches_a_scan_of_all_connections() {
        fn check(net: &NetState) {
            let live: Vec<usize> = (0..net.conns.len())
                .filter(|&i| !net.conns[i].closed_by_server)
                .collect();
            let closed = net.conns.len() - live.len();
            assert_eq!(net.live_conns(), live.len());
            assert_eq!(net.live, live, "ascending live indices");
            assert_eq!(net.served, closed);
            let all = net.backlog.is_empty() && net.arrived.is_empty() && live.is_empty();
            assert_eq!(net.all_served(), all);
        }
        let clients: Vec<ClientScript> = (0..60)
            .map(|k| ClientScript {
                packets: vec![vec![b'x'; 1 + k % 3]; 1 + (k * 7) % 4],
                close_after: true,
            })
            .collect();
        let mut net = NetState::new(clients, 3);
        let mut steps = 0;
        while !net.all_served() {
            steps += 1;
            assert!(steps < 10_000, "serve does not terminate");
            net.pump();
            check(&net);
            while net.accept().is_some() {
                check(&net);
            }
            // Newest connections first, so closes land mid-index.
            let live: Vec<usize> = net.live.iter().rev().copied().collect();
            for idx in live {
                if net.conns[idx].read(2) == Some(Vec::new()) {
                    assert!(net.close(idx));
                    assert!(!net.close(idx), "a second close is a no-op");
                }
                check(&net);
            }
        }
        assert_eq!(net.served, 60);
        assert_eq!(net.conns.len(), 60);
    }

    #[test]
    fn half_open_connection_would_block() {
        let mut net = NetState::new(
            vec![ClientScript {
                packets: vec![b"partial".to_vec()],
                close_after: false,
            }],
            1,
        );
        net.pump();
        let idx = net.accept().unwrap();
        net.pump();
        assert_eq!(net.conns[idx].read(100).unwrap(), b"partial");
        assert_eq!(net.conns[idx].read(100), None); // no EOF, would block
        assert!(!net.conns[idx].is_readable());
    }
}
