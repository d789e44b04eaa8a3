//! The bounded per-connection outbound buffer.
//!
//! A connection's un-flushed reply bytes are bounded by
//! [`NetConfig::max_write_buf`](crate::NetConfig::max_write_buf). A
//! peer that submits queries but stops reading replies would otherwise
//! grow the buffer without bound; instead the push fails, the connection
//! gets a stable [`SlowConsumer`](crate::ErrorCode::SlowConsumer) error,
//! and the server drops it. The bound is a threshold, not a ceiling: a
//! push is accepted whenever the buffer is currently *below* the bound, so
//! a single frame larger than the bound still goes out (the reply encoder
//! refuses a `Rows` frame over `max_frame` before it gets here), and
//! control frames (errors, `Goodbye`) bypass the check — they are what a
//! teardown needs to say.
//!
//! [`OutBuf`] has a single owner (the connection's event thread) and is
//! flushed opportunistically against a nonblocking socket, so it needs no
//! lock at all.

use crate::frame::Frame;
use std::collections::VecDeque;
use std::io::Write;

/// A producer-side push bounced off the byte bound: the peer is a slow
/// consumer and the connection should be torn down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overflow {
    /// Bytes already queued when the push was refused.
    pub queued: usize,
}

/// Single-owner bounded outbound buffer: a FIFO of encoded frames plus a
/// cursor into the front one, flushed against a nonblocking socket until
/// `WouldBlock`.
pub(crate) struct OutBuf {
    q: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    front_pos: usize,
    bytes: usize,
    bound: usize,
}

impl OutBuf {
    pub fn new(bound: usize) -> OutBuf {
        OutBuf { q: VecDeque::new(), front_pos: 0, bytes: 0, bound }
    }

    /// Queues a data frame under the byte bound.
    pub fn push(&mut self, frame: &Frame) -> Result<(), Overflow> {
        self.push_bytes(frame.to_bytes())
    }

    /// [`push`](OutBuf::push) for a reply that is already encoded.
    pub fn push_bytes(&mut self, bytes: Vec<u8>) -> Result<(), Overflow> {
        if self.bytes >= self.bound {
            return Err(Overflow { queued: self.bytes });
        }
        self.bytes += bytes.len();
        self.q.push_back(bytes);
        Ok(())
    }

    /// Queues a control frame regardless of the bound.
    pub fn push_control(&mut self, frame: &Frame) {
        let bytes = frame.to_bytes();
        self.bytes += bytes.len();
        self.q.push_back(bytes);
    }

    /// Writes as much as the socket accepts. `Ok(true)` = fully
    /// drained, `Ok(false)` = the socket would block (caller keeps
    /// write interest); an error means the connection is dead.
    pub fn flush(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while let Some(front) = self.q.front() {
            match w.write(&front[self.front_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted 0 bytes",
                    ))
                }
                Ok(n) => {
                    self.front_pos += n;
                    self.bytes -= n;
                    if self.front_pos == front.len() {
                        self.q.pop_front();
                        self.front_pos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Queued (un-flushed) bytes.
    #[cfg(test)]
    pub fn queued(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_frame(cells: usize) -> Frame {
        Frame::Rows {
            id: 1,
            columns: vec!["x".into()],
            rows: (0..cells).map(|i| vec![format!("{i:032}")]).collect(),
        }
    }

    #[test]
    fn outbuf_flushes_across_partial_writes() {
        // A writer that accepts 7 bytes per call, then blocks every
        // third call: flush must resume exactly where it left off.
        struct Dribble {
            sink: Vec<u8>,
            calls: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(7);
                self.sink.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut out = OutBuf::new(1 << 20);
        let frames = [rows_frame(3), Frame::Goodbye, rows_frame(1)];
        let mut expect = Vec::new();
        for f in &frames {
            out.push(f).unwrap();
            f.encode(&mut expect);
        }
        let mut w = Dribble { sink: Vec::new(), calls: 0 };
        while !out.flush(&mut w).unwrap() {}
        assert_eq!(w.sink, expect);
        assert!(out.is_empty());
        assert_eq!(out.queued(), 0);
    }

    #[test]
    fn outbuf_bound_is_a_threshold() {
        let mut out = OutBuf::new(16);
        // Below the bound: even a frame far larger than it is accepted.
        out.push(&rows_frame(64)).unwrap();
        assert!(out.queued() > 16);
        // At/over the bound: data is refused until flushed, but the
        // teardown notice always fits.
        let queued = out.queued();
        assert_eq!(out.push(&Frame::Goodbye), Err(Overflow { queued }));
        out.push_control(&Frame::Goodbye);
        assert!(out.queued() > queued);
        let mut sink = Vec::new();
        assert!(out.flush(&mut sink).unwrap());
        out.push(&Frame::Goodbye).unwrap();
    }
}
