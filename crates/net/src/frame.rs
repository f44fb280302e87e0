//! Wire protocol for channel data connections.
//!
//! A data connection starts with a `Hello` frame carrying the endpoint
//! token the connector wants to attach to, followed by a stream of
//! [`Frame`]s. The `Close` frame is the graceful end-of-stream marker that
//! carries the §3.4 termination cascade across machines; `Redirect` is the
//! decentralized-communication handshake of §4.3 (Figure 15).
//!
//! ## Sequence offsets (protocol v2)
//!
//! Every writer→reader frame carries the writer's **byte offset** into the
//! logical channel stream, so a connection torn down mid-frame can be
//! replaced and the stream resumed exactly-once: the reader knows exactly
//! how many bytes it has delivered (`expected`), and on a replayed frame
//! discards the duplicate prefix. Offsets count *payload* bytes; the
//! `Close` and `Redirect` markers occupy one unit each in the offset space
//! so their delivery is also exactly-once under replay.
//!
//! Two reader→writer / acceptor→connector tags support recovery:
//! `Ack{offset}` is the reader's cumulative acknowledgement ("I have
//! everything below `offset`"), which bounds the writer's replay buffer;
//! `Stop` is the single-byte notice an acceptor sends when a connection
//! presents a token that was deliberately closed — it lets a reconnecting
//! writer distinguish *the reader is gone on purpose* (cascade per §3.4)
//! from *the link is flaky* (keep retrying).

use kpn_core::{Error, Result};
use std::io::{Read, Write};

/// Frame tags on the wire.
const TAG_DATA: u8 = 0x01;
const TAG_CLOSE: u8 = 0x02;
const TAG_REDIRECT: u8 = 0x03;
const TAG_ACK: u8 = 0x04;
pub(crate) const TAG_STOP: u8 = 0x05;

/// Connection-opening tags (first byte of a fresh TCP connection).
pub(crate) const CONN_HELLO: u8 = 0x48; // 'H' — data connection
pub(crate) const CONN_CONTROL: u8 = 0x43; // 'C' — control session

/// One frame on a data connection other than `Data`, which is always
/// written from a borrowed payload ([`write_data_frame`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Graceful end of stream at `offset`: the reader drains, then sees
    /// EOF.
    Close {
        /// Stream offset of the close marker.
        offset: u64,
    },
    /// The writer endpoint is migrating: the reader should register
    /// `token` with its local acceptor and splice in the connection that
    /// will arrive for it (directly from the endpoint's new home).
    Redirect {
        /// Fresh token the replacement connection will present.
        token: u64,
        /// Stream offset of the redirect marker.
        offset: u64,
    },
    /// Reader→writer: cumulative acknowledgement — every stream unit below
    /// `offset` has been delivered to the local channel.
    Ack {
        /// First unacknowledged stream offset.
        offset: u64,
    },
}

/// Writes the `Hello` preamble of a data connection: the tag, then the
/// token, big-endian — nine bytes the acceptor reads without blocking.
pub(crate) fn write_hello<W: Write>(w: &mut W, token: u64) -> Result<()> {
    w.write_all(&[CONN_HELLO])?;
    w.write_all(&token.to_be_bytes())?;
    w.flush()?;
    Ok(())
}

/// Writes a `Data` frame directly from a borrowed payload — the hot path.
/// No per-frame `Vec`: the 13-byte header is assembled on the stack, and a
/// buffered writer underneath coalesces header and payload into one
/// transfer.
pub(crate) fn write_data_frame<W: Write>(w: &mut W, payload: &[u8], offset: u64) -> Result<()> {
    let mut hdr = [0u8; 13];
    hdr[0] = TAG_DATA;
    hdr[1..5].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    hdr[5..].copy_from_slice(&offset.to_be_bytes());
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    Ok(())
}

/// Writes one frame.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<()> {
    match frame {
        Frame::Close { offset } => {
            w.write_all(&[TAG_CLOSE])?;
            w.write_all(&offset.to_be_bytes())?;
        }
        Frame::Redirect { token, offset } => {
            w.write_all(&[TAG_REDIRECT])?;
            w.write_all(&token.to_be_bytes())?;
            w.write_all(&offset.to_be_bytes())?;
        }
        Frame::Ack { offset } => {
            w.write_all(&[TAG_ACK])?;
            w.write_all(&offset.to_be_bytes())?;
        }
    }
    Ok(())
}

/// Reads the header of the next frame. For `Data` frames the payload is
/// *not* consumed — the caller streams it (so one big frame does not force
/// one big allocation). Returns the payload length and stream offset.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameHeader {
    /// `Data` frame: payload length to stream, starting at this offset.
    Data {
        /// Payload bytes to stream after the header.
        len: usize,
        /// Stream offset of the first payload byte.
        offset: u64,
    },
    /// Graceful close at this offset.
    Close {
        /// Stream offset of the close marker.
        offset: u64,
    },
    /// Redirect handshake.
    Redirect {
        /// Token the replacement connection will present.
        token: u64,
        /// Stream offset of the redirect marker.
        offset: u64,
    },
    /// Cumulative acknowledgement from the reader.
    Ack {
        /// First unacknowledged stream offset.
        offset: u64,
    },
    /// Dead-token notice from an acceptor: the endpoint was deliberately
    /// closed; stop retrying.
    Stop,
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_be_bytes(buf))
}

/// Parses the body of a frame whose tag byte has already been read. The
/// reader waits for the tag byte itself, to tell an idle channel from a
/// mid-frame stall.
pub(crate) fn parse_frame_header<R: Read>(tag: u8, r: &mut R) -> Result<FrameHeader> {
    match tag {
        TAG_DATA => {
            let mut len = [0u8; 4];
            r.read_exact(&mut len)?;
            let offset = read_u64(r)?;
            Ok(FrameHeader::Data {
                len: u32::from_be_bytes(len) as usize,
                offset,
            })
        }
        TAG_CLOSE => Ok(FrameHeader::Close {
            offset: read_u64(r)?,
        }),
        TAG_REDIRECT => {
            let token = read_u64(r)?;
            let offset = read_u64(r)?;
            Ok(FrameHeader::Redirect { token, offset })
        }
        TAG_ACK => Ok(FrameHeader::Ack {
            offset: read_u64(r)?,
        }),
        TAG_STOP => Ok(FrameHeader::Stop),
        other => Err(Error::Disconnected(format!("unknown frame tag {other:#x}"))),
    }
}

/// Incremental parser for `Ack` frames on the writer side. The writer
/// drains acks *nonblockingly* between data writes, so a read may surface
/// any prefix of the 9-byte ack; this accumulates partial bytes across
/// calls.
#[derive(Clone, Debug, Default)]
pub(crate) struct AckParser {
    buf: [u8; 9],
    filled: usize,
}

/// One event surfaced by [`AckParser::feed`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AckEvent {
    /// Cumulative ack up to this offset.
    Ack(u64),
    /// The peer sent `Stop`: the endpoint is deliberately closed.
    Stop,
}

impl AckParser {
    /// Feeds raw bytes from the reader→writer direction; invokes `on_event`
    /// for every complete event. Non-ack tags in this direction are a
    /// protocol error.
    pub(crate) fn feed(&mut self, mut bytes: &[u8], mut on_event: impl FnMut(AckEvent)) -> Result<()> {
        while !bytes.is_empty() {
            if self.filled == 0 {
                match bytes[0] {
                    TAG_STOP => {
                        on_event(AckEvent::Stop);
                        bytes = &bytes[1..];
                        continue;
                    }
                    TAG_ACK => {}
                    other => {
                        return Err(Error::Disconnected(format!(
                            "unexpected tag {other:#x} on ack stream"
                        )))
                    }
                }
            }
            let want = 9 - self.filled;
            let take = want.min(bytes.len());
            self.buf[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled == 9 {
                let off = self.buf[1..].try_into().unwrap_or_default();
                on_event(AckEvent::Ack(u64::from_be_bytes(off)));
                self.filled = 0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// Reads a tag byte and then the header it starts, as the reader does.
    fn next_header<R: Read>(r: &mut R) -> Result<FrameHeader> {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        parse_frame_header(tag[0], r)
    }

    #[test]
    fn data_frame_roundtrip() {
        let mut buf = Vec::new();
        write_data_frame(&mut buf, b"hello", 77).unwrap();
        let mut cur = Cursor::new(buf);
        match next_header(&mut cur).unwrap() {
            FrameHeader::Data { len: 5, offset: 77 } => {
                let mut payload = [0u8; 5];
                cur.read_exact(&mut payload).unwrap();
                assert_eq!(&payload, b"hello");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn close_and_redirect_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Close { offset: 9 }).unwrap();
        write_frame(
            &mut buf,
            &Frame::Redirect {
                token: 0xDEAD,
                offset: 10,
            },
        )
        .unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            next_header(&mut cur).unwrap(),
            FrameHeader::Close { offset: 9 }
        );
        assert_eq!(
            next_header(&mut cur).unwrap(),
            FrameHeader::Redirect {
                token: 0xDEAD,
                offset: 10
            }
        );
    }

    #[test]
    fn ack_and_stop_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Ack { offset: 4096 }).unwrap();
        buf.push(TAG_STOP);
        let mut cur = Cursor::new(buf);
        assert_eq!(
            next_header(&mut cur).unwrap(),
            FrameHeader::Ack { offset: 4096 }
        );
        assert_eq!(next_header(&mut cur).unwrap(), FrameHeader::Stop);
    }

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        write_hello(&mut buf, 12345).unwrap();
        assert_eq!(buf[0], CONN_HELLO);
        assert_eq!(u64::from_be_bytes(buf[1..].try_into().unwrap()), 12345);
    }

    #[test]
    fn truncated_header_is_eof() {
        let mut cur = Cursor::new(vec![TAG_CLOSE, 0, 0, 0]);
        assert!(matches!(next_header(&mut cur), Err(Error::Eof)));
    }

    #[test]
    fn garbage_tag_is_disconnect() {
        let mut cur = Cursor::new(vec![0xFFu8]);
        assert!(matches!(next_header(&mut cur), Err(Error::Disconnected(_))));
    }

    #[test]
    fn ack_parser_handles_partial_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ack { offset: 1000 }).unwrap();
        wire.push(TAG_STOP);
        write_frame(&mut wire, &Frame::Ack { offset: 2000 }).unwrap();

        let mut events = Vec::new();
        let mut parser = AckParser::default();
        // Feed one byte at a time — worst-case fragmentation.
        for b in &wire {
            parser.feed(&[*b], |e| events.push(e)).unwrap();
        }
        assert_eq!(
            events,
            vec![AckEvent::Ack(1000), AckEvent::Stop, AckEvent::Ack(2000)]
        );
    }

    #[test]
    fn ack_parser_rejects_data_tag() {
        let mut parser = AckParser::default();
        assert!(parser.feed(&[TAG_DATA], |_| {}).is_err());
    }

    /// Feeds `wire` in pieces of the given sizes (the rest in one piece).
    fn feed_split(wire: &[u8], sizes: &[usize]) -> Result<Vec<AckEvent>> {
        let (mut parser, mut events, mut rest) = (AckParser::default(), Vec::new(), wire);
        for &size in sizes {
            let (piece, tail) = rest.split_at(size.min(rest.len()));
            parser.feed(piece, |e| events.push(e))?;
            rest = tail;
        }
        parser.feed(rest, |e| events.push(e))?;
        Ok(events)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ack_parser_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
            sizes in proptest::collection::vec(0usize..16, 0..32),
        ) {
            // Ok or Err, whatever arrives and however it is cut: no panic.
            let _ = feed_split(&bytes, &sizes);
        }

        #[test]
        fn an_ack_stream_parses_the_same_in_any_split(
            // `Some(offset)` is an ack, `None` a stop.
            acks in proptest::collection::vec(proptest::option::of(any::<u64>()), 0..32),
            sizes in proptest::collection::vec(0usize..20, 0..64),
        ) {
            let mut wire = Vec::new();
            for ack in &acks {
                match ack {
                    Some(offset) => write_frame(&mut wire, &Frame::Ack { offset: *offset }).unwrap(),
                    None => wire.push(TAG_STOP),
                }
            }
            let whole = feed_split(&wire, &[]).unwrap();
            let expect: Vec<AckEvent> =
                acks.iter().map(|a| a.map_or(AckEvent::Stop, AckEvent::Ack)).collect();
            prop_assert_eq!(&whole, &expect);
            prop_assert_eq!(feed_split(&wire, &sizes).unwrap(), whole);
        }

        #[test]
        fn a_header_never_reads_past_seventeen_bytes(
            tag in any::<u8>(),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut cur = Cursor::new(body);
            let _ = parse_frame_header(tag, &mut cur);
            // The tag byte was read before the call.
            let read = 1 + cur.position();
            prop_assert!(read <= 17, "{} bytes read", read);
        }
    }
}
