//! Hand-rolled readiness polling over non-blocking sockets.
//!
//! The workspace forbids `unsafe`, which rules out binding `poll(2)` /
//! `epoll(7)` through FFI. Instead the event loop polls readiness the
//! portable way: every socket is switched to non-blocking mode and probed
//! each tick — `peek` on streams, `accept` on listeners — with
//! `WouldBlock` meaning "idle". A tick with no ready source sleeps for a
//! short, bounded interval ([`Poller::idle_wait`]) so an idle node burns
//! microwatts, not a core. With a handful of peers per node the O(n)
//! probe is far below the cost of one syscall-per-readiness-change
//! machinery, and it keeps the transport layer entirely in safe std.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

/// The readiness probe is the admin HTTP server's: one copy, in `ripple-obs`.
pub use ripple_obs::http::{probe, try_accept, Probe};

use crate::frame::FrameDecoder;

/// Outcome of draining a socket into a decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drained {
    /// Read `0+` bytes; the connection is still up.
    Open(usize),
    /// The peer closed (EOF) or the socket errored.
    Closed,
}

/// Reads everything currently available on a non-blocking stream into
/// `decoder`, stopping at `WouldBlock`.
pub fn drain_into(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Drained {
    let mut total = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Drained::Closed,
            Ok(n) => {
                decoder.push(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drained::Open(total),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Drained::Closed,
        }
    }
}

/// The idle-tick clock of the event loop.
#[derive(Debug, Clone, Copy)]
pub struct Poller {
    idle: Duration,
}

impl Poller {
    /// A poller sleeping `idle` per quiet tick.
    pub fn new(idle: Duration) -> Poller {
        Poller { idle }
    }

    /// Blocks for one idle interval. Called only when a full probe pass
    /// found no ready source.
    pub fn idle_wait(&self) {
        std::thread::sleep(self.idle);
    }
}

impl Default for Poller {
    fn default() -> Poller {
        Poller::new(Duration::from_millis(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn wait_for(stream: &TcpStream, want: Probe) {
        for _ in 0..500 {
            if probe(stream) == want {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("probe never became {want:?}");
    }

    #[test]
    fn probe_sees_idle_then_data_then_closed() {
        let (mut client, server) = pair();
        assert_eq!(probe(&server), Probe::Idle);
        client.write_all(b"ping").unwrap();
        wait_for(&server, Probe::Data);
        drop(client);
        // Drain the pending bytes, then the close becomes visible.
        let mut dec = FrameDecoder::new();
        let mut server = server;
        loop {
            match drain_into(&mut server, &mut dec) {
                Drained::Closed => break,
                Drained::Open(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    #[test]
    fn try_accept_is_nonblocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(try_accept(&listener).is_none());
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut accepted = None;
        for _ in 0..500 {
            accepted = try_accept(&listener);
            if accepted.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(accepted.is_some(), "connection never surfaced");
    }

    #[test]
    fn drain_into_collects_frames_across_writes() {
        use crate::frame::encode_frame;
        let (mut client, mut server) = pair();
        let mut bytes = Vec::new();
        encode_frame(7, b"hello", &mut bytes);
        encode_frame(8, b"world", &mut bytes);
        // Two writes split mid-frame.
        client.write_all(&bytes[..7]).unwrap();
        client.flush().unwrap();
        wait_for(&server, Probe::Data);
        let mut dec = FrameDecoder::new();
        drain_into(&mut server, &mut dec);
        assert!(dec.next_frame().is_none(), "first frame still torn");
        client.write_all(&bytes[7..]).unwrap();
        client.flush().unwrap();
        wait_for(&server, Probe::Data);
        drain_into(&mut server, &mut dec);
        let a = dec.next_frame().expect("frame 1");
        let b = dec.next_frame().expect("frame 2");
        assert_eq!((a.tag, a.payload.as_slice()), (7, b"hello".as_slice()));
        assert_eq!((b.tag, b.payload.as_slice()), (8, b"world".as_slice()));
    }
}
