//! Typed layering over byte channels (§3.1).
//!
//! All inter-process communication is a stream of bytes; a process that
//! wants to exchange richer values layers a formatter over its endpoint
//! *inside the process*, exactly like wrapping a Java
//! `DataOutputStream`/`DataInputStream` around a channel stream. Values are
//! encoded big-endian, matching the Java wire format, so a `Duplicate` or
//! `Cons` that copies raw bytes composes transparently with typed producers
//! and consumers.
//!
//! Both typed endpoints are **buffered** (at most [`DEFAULT_STREAM_BUFFER`]
//! bytes, and never more than the channel's own capacity), the
//! `Buffered{Output,Input}Stream` layer Java gave the paper for free: a
//! burst of small typed tokens costs one channel transfer per chunk instead
//! of one mutex round-trip each. Write-side buffering lives in the
//! [`ChannelWriter`] itself (via [`ChannelWriter::ensure_buffered`]), so
//! `into_inner` round-trips are lossless. Buffered bytes become visible on
//! flush/close/drop, when the chunk fills, at an `Iterative` step boundary
//! if the reader is parked waiting for them (or cannot be seen and the
//! transport's last publish is at least its own duration old), and always
//! before the owning task waits for anything — the rule that keeps
//! buffering invisible to Kahn determinacy and to the deadlock monitor (see
//! [`crate::flush`]). A token written in one step of an `Iterative` process
//! is therefore in front of a waiting local reader by the end of the next
//! step at the latest, and on its way to a remote one within one
//! publish-duration of the previous publish; [`DataWriter::flush`] forces
//! it out now. Read-side buffering is plain
//! read-ahead inside [`DataReader`]; unconsumed read-ahead is pushed back
//! with [`ChannelReader::unread`] when the reader is unwrapped.
//!
//! For full object graphs (`ObjectOutputStream` analogue) see `kpn-codec`,
//! which provides a serde-based binary format over any `io::Write`/`Read` —
//! including these channel endpoints.

use crate::channel::{ChannelReader, ChannelWriter};
use crate::error::Result;

pub use crate::channel::DEFAULT_STREAM_BUFFER;

/// Writes primitive values big-endian onto a channel
/// (`java.io.DataOutputStream` analogue). Buffered by default; see the
/// module docs for visibility and flush rules.
#[derive(Debug)]
pub struct DataWriter {
    inner: ChannelWriter,
}

impl DataWriter {
    /// Wraps a channel writer, installing a write buffer of
    /// [`DEFAULT_STREAM_BUFFER`] bytes or the channel's capacity, whichever
    /// is smaller (no-op if the writer is already buffered).
    pub fn new(inner: ChannelWriter) -> Self {
        Self::with_buffer_capacity(inner, DEFAULT_STREAM_BUFFER)
    }

    /// Wraps a channel writer with an explicit buffer capacity (capped by
    /// the channel's own). A capacity of zero leaves the writer unbuffered
    /// (every token is a channel transfer, the pre-buffering behaviour).
    pub fn with_buffer_capacity(mut inner: ChannelWriter, capacity: usize) -> Self {
        inner.declare_framing(crate::topology::StreamFraming::Data);
        inner.ensure_buffered(capacity);
        DataWriter { inner }
    }

    /// Wraps a channel writer without installing a buffer. Equivalent to
    /// `with_buffer_capacity(inner, 0)`; useful for latency-critical single
    /// tokens and for benchmarking the unbatched path.
    pub fn unbuffered(inner: ChannelWriter) -> Self {
        inner.declare_framing(crate::topology::StreamFraming::Data);
        DataWriter { inner }
    }

    /// Recovers the underlying byte endpoint. Any installed buffer stays
    /// with the returned [`ChannelWriter`] (buffering lives in the sink),
    /// so no bytes are lost or reordered; call [`DataWriter::flush`] first
    /// if pending bytes must be visible immediately.
    pub fn into_inner(self) -> ChannelWriter {
        self.inner
    }

    /// Mutable access to the underlying endpoint (for mixed byte/typed use).
    pub fn inner_mut(&mut self) -> &mut ChannelWriter {
        &mut self.inner
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, v: u8) -> Result<()> {
        self.inner.write_all(&[v])
    }

    /// Writes a boolean as one byte (0/1).
    pub fn write_bool(&mut self, v: bool) -> Result<()> {
        self.write_u8(v as u8)
    }

    /// Writes a big-endian `i32`.
    pub fn write_i32(&mut self, v: i32) -> Result<()> {
        self.inner.write_all(&v.to_be_bytes())
    }

    /// Writes a big-endian `i64` (`writeLong`).
    pub fn write_i64(&mut self, v: i64) -> Result<()> {
        self.inner.write_all(&v.to_be_bytes())
    }

    /// Writes a big-endian `u64`.
    pub fn write_u64(&mut self, v: u64) -> Result<()> {
        self.inner.write_all(&v.to_be_bytes())
    }

    /// Writes a big-endian IEEE-754 `f64` (`writeDouble`).
    pub fn write_f64(&mut self, v: f64) -> Result<()> {
        self.inner.write_all(&v.to_be_bytes())
    }

    /// Writes a length-prefixed byte block (u32 length, then bytes). Small
    /// blocks are assembled on the stack and issued as a *single* buffered
    /// write; larger ones write prefix and payload back-to-back into the
    /// same buffer chunk.
    pub fn write_block(&mut self, bytes: &[u8]) -> Result<()> {
        let len = (bytes.len() as u32).to_be_bytes();
        if bytes.len() <= 124 {
            let mut frame = [0u8; 128];
            frame[..4].copy_from_slice(&len);
            frame[4..4 + bytes.len()].copy_from_slice(bytes);
            self.inner.write_all(&frame[..4 + bytes.len()])
        } else {
            self.inner.write_all(&len)?;
            self.inner.write_all(bytes)
        }
    }

    /// Writes a UTF-8 string with a u16 byte-length prefix — the wire
    /// shape of Java's `writeUTF` (for strings without supplementary
    /// characters, which Java encodes in modified UTF-8).
    pub fn write_utf(&mut self, s: &str) -> Result<()> {
        let bytes = s.as_bytes();
        let len = u16::try_from(bytes.len()).map_err(|_| {
            crate::error::Error::Codec("writeUTF string longer than 65535 bytes".into())
        })?;
        self.inner.write_all(&len.to_be_bytes())?;
        self.inner.write_all(bytes)
    }

    /// Flushes the underlying endpoint.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    /// Gracefully closes the stream.
    pub fn close(&mut self) {
        self.inner.close()
    }
}

/// Reads primitive values big-endian from a channel
/// (`java.io.DataInputStream` analogue). Every read blocks until the value
/// is complete and fails with [`crate::Error::Eof`] at end of stream.
///
/// Buffered by default: each refill drains whatever the channel currently
/// holds (up to the buffer size) in one transfer, and subsequent token reads
/// are served from the private buffer lock-free. Unwrapping the reader via
/// [`DataReader::into_inner`]/[`DataReader::inner_mut`] pushes unconsumed
/// read-ahead back onto the stream ([`ChannelReader::unread`]), so the
/// wrap/unwrap cycles of dynamic graphs (the sieve, §3.3) stay lossless.
pub struct DataReader {
    inner: ChannelReader,
    /// Read-ahead storage; empty when the reader is unbuffered.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
}

impl std::fmt::Debug for DataReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataReader")
            .field("inner", &self.inner)
            .field("buffered", &(self.end - self.start))
            .field("capacity", &self.buf.len())
            .finish()
    }
}

impl DataReader {
    /// Wraps a channel reader with [`DEFAULT_STREAM_BUFFER`] bytes of
    /// read-ahead.
    pub fn new(inner: ChannelReader) -> Self {
        Self::with_buffer_capacity(inner, DEFAULT_STREAM_BUFFER)
    }

    /// Wraps a channel reader with an explicit read-ahead capacity. Zero
    /// disables read-ahead (every token is a channel transfer).
    pub fn with_buffer_capacity(inner: ChannelReader, capacity: usize) -> Self {
        inner.declare_framing(crate::topology::StreamFraming::Data);
        DataReader {
            inner,
            buf: vec![0u8; capacity].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a channel reader without read-ahead. Equivalent to
    /// `with_buffer_capacity(inner, 0)`.
    pub fn unbuffered(inner: ChannelReader) -> Self {
        Self::with_buffer_capacity(inner, 0)
    }

    /// Recovers the underlying byte endpoint. Unconsumed read-ahead is
    /// pushed back to the front of the stream first, so no byte is lost.
    pub fn into_inner(mut self) -> ChannelReader {
        self.push_back_readahead();
        self.inner
    }

    /// Mutable access to the underlying endpoint. Unconsumed read-ahead is
    /// pushed back first so byte-level access observes the true stream
    /// position.
    pub fn inner_mut(&mut self) -> &mut ChannelReader {
        self.push_back_readahead();
        &mut self.inner
    }

    fn push_back_readahead(&mut self) {
        if self.start != self.end {
            let pending = self.buf[self.start..self.end].to_vec();
            self.inner.unread(pending);
            self.start = 0;
            self.end = 0;
        }
    }

    /// `read_exact` through the read-ahead buffer. Requests at least as
    /// large as the buffer bypass it once it has drained.
    fn fill_exact(&mut self, out: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < out.len() {
            if self.start == self.end {
                let want = out.len() - filled;
                if want >= self.buf.len() {
                    // Unbuffered reader, or an oversized request: go direct.
                    return self.inner.read_exact(&mut out[filled..]);
                }
                let n = self.inner.read(&mut self.buf)?;
                if n == 0 {
                    return Err(crate::error::Error::Eof);
                }
                self.start = 0;
                self.end = n;
            }
            let take = (self.end - self.start).min(out.len() - filled);
            out[filled..filled + take].copy_from_slice(&self.buf[self.start..self.start + take]);
            self.start += take;
            filled += take;
        }
        Ok(())
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.fill_exact(&mut b)?;
        Ok(b[0])
    }

    /// Reads a boolean (any nonzero byte is `true`).
    pub fn read_bool(&mut self) -> Result<bool> {
        Ok(self.read_u8()? != 0)
    }

    /// Reads a big-endian `i32`.
    pub fn read_i32(&mut self) -> Result<i32> {
        let mut b = [0u8; 4];
        self.fill_exact(&mut b)?;
        Ok(i32::from_be_bytes(b))
    }

    /// Reads a big-endian `i64` (`readLong`).
    pub fn read_i64(&mut self) -> Result<i64> {
        let mut b = [0u8; 8];
        self.fill_exact(&mut b)?;
        Ok(i64::from_be_bytes(b))
    }

    /// Reads a big-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.fill_exact(&mut b)?;
        Ok(u64::from_be_bytes(b))
    }

    /// Reads a big-endian IEEE-754 `f64` (`readDouble`).
    pub fn read_f64(&mut self) -> Result<f64> {
        let mut b = [0u8; 8];
        self.fill_exact(&mut b)?;
        Ok(f64::from_be_bytes(b))
    }

    /// Reads a length-prefixed byte block written by
    /// [`DataWriter::write_block`].
    pub fn read_block(&mut self) -> Result<Vec<u8>> {
        let mut lb = [0u8; 4];
        self.fill_exact(&mut lb)?;
        let len = u32::from_be_bytes(lb) as usize;
        let mut out = vec![0u8; len];
        self.fill_exact(&mut out)?;
        Ok(out)
    }

    /// Reads a string written by [`DataWriter::write_utf`].
    pub fn read_utf(&mut self) -> Result<String> {
        let mut lb = [0u8; 2];
        self.fill_exact(&mut lb)?;
        let len = u16::from_be_bytes(lb) as usize;
        let mut bytes = vec![0u8; len];
        self.fill_exact(&mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|e| crate::error::Error::Codec(format!("invalid utf-8: {e}")))
    }

    /// Closes the stream (writers fail on next write). Discards read-ahead.
    pub fn close(&mut self) {
        self.start = 0;
        self.end = 0;
        self.inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel;
    use crate::error::Error;

    #[test]
    fn primitive_roundtrip() {
        let (w, r) = channel();
        let mut dw = DataWriter::new(w);
        let mut dr = DataReader::new(r);
        dw.write_u8(0xAB).unwrap();
        dw.write_bool(true).unwrap();
        dw.write_i32(-7).unwrap();
        dw.write_i64(i64::MIN).unwrap();
        dw.write_u64(u64::MAX).unwrap();
        dw.write_f64(core::f64::consts::PI).unwrap();
        assert_eq!(dr.read_u8().unwrap(), 0xAB);
        assert!(dr.read_bool().unwrap());
        assert_eq!(dr.read_i32().unwrap(), -7);
        assert_eq!(dr.read_i64().unwrap(), i64::MIN);
        assert_eq!(dr.read_u64().unwrap(), u64::MAX);
        assert_eq!(dr.read_f64().unwrap(), core::f64::consts::PI);
    }

    #[test]
    fn big_endian_wire_format() {
        // Java interop property: writeLong(1) is 7 zero bytes then 0x01.
        let (w, mut r) = channel();
        let mut dw = DataWriter::new(w);
        dw.write_i64(1).unwrap();
        drop(dw);
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn block_roundtrip() {
        let (w, r) = channel();
        let mut dw = DataWriter::new(w);
        let mut dr = DataReader::new(r);
        dw.write_block(b"hello world").unwrap();
        dw.write_block(b"").unwrap();
        assert_eq!(dr.read_block().unwrap(), b"hello world");
        assert_eq!(dr.read_block().unwrap(), b"");
    }

    #[test]
    fn utf_roundtrip() {
        let (w, r) = channel();
        let mut dw = DataWriter::new(w);
        let mut dr = DataReader::new(r);
        dw.write_utf("").unwrap();
        dw.write_utf("plain ascii").unwrap();
        dw.write_utf("ユニコード").unwrap();
        assert_eq!(dr.read_utf().unwrap(), "");
        assert_eq!(dr.read_utf().unwrap(), "plain ascii");
        assert_eq!(dr.read_utf().unwrap(), "ユニコード");
    }

    #[test]
    fn utf_wire_format_matches_java() {
        // writeUTF("ab") = 0x00 0x02 'a' 'b'
        let (w, mut r) = channel();
        let mut dw = DataWriter::new(w);
        dw.write_utf("ab").unwrap();
        drop(dw);
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [0, 2, b'a', b'b']);
    }

    #[test]
    fn utf_oversized_rejected() {
        let (w, _r) = channel();
        let mut dw = DataWriter::new(w);
        let big = "x".repeat(70_000);
        assert!(dw.write_utf(&big).is_err());
    }

    #[test]
    fn eof_mid_value() {
        let (mut w, r) = channel();
        w.write_all(&[0, 0, 0]).unwrap(); // 3 of 8 bytes of an i64
        drop(w);
        let mut dr = DataReader::new(r);
        assert!(matches!(dr.read_i64(), Err(Error::Eof)));
    }

    #[test]
    fn writer_buffers_until_flush() {
        let (w, mut r) = channel();
        let mut dw = DataWriter::new(w);
        dw.write_i64(7).unwrap();
        dw.flush().unwrap();
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(i64::from_be_bytes(buf), 7);
    }

    #[test]
    fn reader_into_inner_returns_readahead() {
        // The sieve's pattern: wrap, read one token, unwrap — the bytes the
        // read-ahead pulled in beyond that token must come back.
        let (w, r) = channel();
        let mut dw = DataWriter::new(w);
        for v in 0..10i64 {
            dw.write_i64(v).unwrap();
        }
        drop(dw);
        let mut dr = DataReader::new(r);
        assert_eq!(dr.read_i64().unwrap(), 0);
        let inner = dr.into_inner(); // 9 tokens of read-ahead pushed back
        let mut dr2 = DataReader::new(inner);
        for v in 1..10i64 {
            assert_eq!(dr2.read_i64().unwrap(), v);
        }
        assert!(matches!(dr2.read_i64(), Err(Error::Eof)));
    }

    #[test]
    fn reader_inner_mut_observes_true_position() {
        let (w, r) = channel();
        let mut dw = DataWriter::new(w);
        dw.write_i64(1).unwrap();
        dw.write_i64(2).unwrap();
        drop(dw);
        let mut dr = DataReader::new(r);
        assert_eq!(dr.read_i64().unwrap(), 1);
        let mut raw = [0u8; 8];
        dr.inner_mut().read_exact(&mut raw).unwrap();
        assert_eq!(i64::from_be_bytes(raw), 2);
    }

    #[test]
    fn unbuffered_endpoints_are_immediate() {
        let (w, r) = channel();
        let mut dw = DataWriter::unbuffered(w);
        let mut dr = DataReader::unbuffered(r);
        dw.write_i64(99).unwrap(); // visible without any flush
        assert_eq!(dr.read_i64().unwrap(), 99);
    }

    #[test]
    fn large_block_roundtrip_through_buffered_streams() {
        // Payload far beyond the stream buffer: exercises the bypass path
        // on both sides.
        let (w, r) = channel();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let h = std::thread::spawn(move || {
            let mut dw = DataWriter::new(w);
            dw.write_block(&payload).unwrap();
        });
        let mut dr = DataReader::new(r);
        assert_eq!(dr.read_block().unwrap(), expect);
        h.join().unwrap();
    }

    #[test]
    fn typed_over_byte_copy_is_transparent() {
        // A byte-level identity stage between typed endpoints must not
        // disturb values — the property that makes Duplicate/Cons
        // type-independent (§3.1).
        let (w1, mut r1) = channel();
        let (mut w2, r2) = channel();
        let mut dw = DataWriter::new(w1);
        dw.write_i64(42).unwrap();
        dw.write_f64(-0.5).unwrap();
        drop(dw);
        // byte-level copy stage
        let mut buf = [0u8; 3];
        loop {
            let n = r1.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            w2.write_all(&buf[..n]).unwrap();
        }
        drop(w2);
        let mut dr = DataReader::new(r2);
        assert_eq!(dr.read_i64().unwrap(), 42);
        assert_eq!(dr.read_f64().unwrap(), -0.5);
    }
}
