//! SOME/IP-inspired wire format.
//!
//! Field layout follows the SOME/IP on-wire header (16 bytes):
//!
//! ```text
//! [service id: u16][method id: u16][length: u32]
//! [client id: u16][session id: u16][protocol: u8][interface: u8][type: u8][return: u8]
//! ```
//!
//! `length` counts the bytes after the length field (8 header bytes plus
//! any trace extension plus payload), exactly as in SOME/IP.
//!
//! Traced messages (SOME/IP-TP-style extension): setting the
//! [`TRACE_FLAG`] bit on the message-type byte inserts a 16-byte trace
//! block — `[trace id: u64][span id: u64]` — between the header and the
//! payload, so a causal [`TraceCtx`] survives serialization across ECUs.
//! Untraced frames are byte-identical to plain SOME/IP.

use dynplat_common::codec::{ByteReader, ByteWriter, CodecError};
use dynplat_common::{MethodId, ServiceId};
use dynplat_obs::TraceCtx;

/// Protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u8 = 1;
/// Header length on the wire.
pub const HEADER_LEN: usize = 16;
/// Message-type flag marking a trace extension block after the header.
/// Disjoint from every [`MessageType`] wire value (the SOME/IP pattern of
/// flagging extensions on the type byte, as TP does with 0x20).
pub const TRACE_FLAG: u8 = 0x10;
/// On-wire size of the trace extension block.
pub const TRACE_EXT_LEN: usize = 16;

/// SOME/IP message types (subset plus a stream-data extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// RPC request expecting a response.
    Request,
    /// Fire-and-forget request.
    RequestNoReturn,
    /// Event notification (publish/subscribe).
    Notification,
    /// RPC response.
    Response,
    /// RPC error response.
    Error,
    /// Stream frame (extension; carries a sequence number in the payload).
    StreamData,
}

impl MessageType {
    fn to_wire(self) -> u8 {
        match self {
            MessageType::Request => 0x00,
            MessageType::RequestNoReturn => 0x01,
            MessageType::Notification => 0x02,
            MessageType::Response => 0x80,
            MessageType::Error => 0x81,
            MessageType::StreamData => 0x42,
        }
    }

    fn from_wire(raw: u8) -> Option<Self> {
        Some(match raw {
            0x00 => MessageType::Request,
            0x01 => MessageType::RequestNoReturn,
            0x02 => MessageType::Notification,
            0x80 => MessageType::Response,
            0x81 => MessageType::Error,
            0x42 => MessageType::StreamData,
            _ => return None,
        })
    }
}

/// SOME/IP return codes (subset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReturnCode {
    /// Success.
    #[default]
    Ok,
    /// Generic failure.
    NotOk,
    /// The service id is unknown at the receiver.
    UnknownService,
    /// The method id is unknown on the service.
    UnknownMethod,
    /// The client is not authorized for this call (§4.2).
    NotReachable,
}

impl ReturnCode {
    fn to_wire(self) -> u8 {
        match self {
            ReturnCode::Ok => 0x00,
            ReturnCode::NotOk => 0x01,
            ReturnCode::UnknownService => 0x02,
            ReturnCode::UnknownMethod => 0x03,
            ReturnCode::NotReachable => 0x05,
        }
    }

    fn from_wire(raw: u8) -> Option<Self> {
        Some(match raw {
            0x00 => ReturnCode::Ok,
            0x01 => ReturnCode::NotOk,
            0x02 => ReturnCode::UnknownService,
            0x03 => ReturnCode::UnknownMethod,
            0x05 => ReturnCode::NotReachable,
            _ => return None,
        })
    }
}

/// The 16-byte message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SomeIpHeader {
    /// Target service.
    pub service: ServiceId,
    /// Method / event id within the service.
    pub method: MethodId,
    /// Payload length in bytes (the wire `length` field is derived).
    pub payload_len: u32,
    /// Requesting client id.
    pub client: u16,
    /// Session counter for request/response matching.
    pub session: u16,
    /// Interface (major) version of the service contract.
    pub interface_version: u8,
    /// Message type.
    pub message_type: MessageType,
    /// Return code (requests carry [`ReturnCode::Ok`]).
    pub return_code: ReturnCode,
    /// Causal trace context; [`TraceCtx::NONE`] encodes with no extension
    /// block, anything active sets [`TRACE_FLAG`] and ships 16 extra
    /// bytes.
    pub trace: TraceCtx,
}

impl SomeIpHeader {
    /// Creates a request header.
    pub fn request(service: ServiceId, method: MethodId, client: u16, session: u16) -> Self {
        SomeIpHeader {
            service,
            method,
            payload_len: 0,
            client,
            session,
            interface_version: 1,
            message_type: MessageType::Request,
            return_code: ReturnCode::Ok,
            trace: TraceCtx::NONE,
        }
    }

    /// Creates a notification header.
    pub fn notification(service: ServiceId, event: MethodId) -> Self {
        SomeIpHeader {
            service,
            method: event,
            payload_len: 0,
            client: 0,
            session: 0,
            interface_version: 1,
            message_type: MessageType::Notification,
            return_code: ReturnCode::Ok,
            trace: TraceCtx::NONE,
        }
    }

    /// Stamps a causal trace context onto the header.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// Encodes header (plus trace extension when active) plus payload
    /// into one datagram.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let traced = self.trace.is_active();
        let ext = if traced { TRACE_EXT_LEN } else { 0 };
        let mut out = Vec::with_capacity(HEADER_LEN + ext + payload.len());
        self.encode_into(payload, &mut out);
        out
    }

    /// Encodes into a caller-owned buffer (cleared first, capacity kept):
    /// the zero-copy wire path stages one datagram per *publication* into
    /// a reused scratch buffer instead of allocating one per subscriber
    /// leg. A warmed buffer makes repeated encodes allocation-free.
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        let traced = self.trace.is_active();
        let mut w = ByteWriter::from_vec(std::mem::take(out));
        w.put_u16(self.service.raw());
        w.put_u16(self.method.raw());
        w.put_u32(8 + if traced { TRACE_EXT_LEN as u32 } else { 0 } + payload.len() as u32);
        w.put_u16(self.client);
        w.put_u16(self.session);
        w.put_u8(PROTOCOL_VERSION);
        w.put_u8(self.interface_version);
        w.put_u8(self.message_type.to_wire() | if traced { TRACE_FLAG } else { 0 });
        w.put_u8(self.return_code.to_wire());
        if traced {
            w.put_u64(self.trace.trace_id);
            w.put_u64(self.trace.span);
        }
        w.put_bytes(payload);
        *out = w.into_vec();
    }

    /// Decodes a datagram into header and payload.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated input, a wrong protocol
    /// version, unknown type/return codes, or a length field that does not
    /// match the actual datagram size.
    pub fn decode(datagram: &[u8]) -> Result<(SomeIpHeader, &[u8]), CodecError> {
        let mut r = ByteReader::new(datagram);
        let service = ServiceId(r.take_u16()?);
        let method = MethodId(r.take_u16()?);
        let length = r.take_u32()?;
        let client = r.take_u16()?;
        let session = r.take_u16()?;
        let protocol = r.take_u8()?;
        if protocol != PROTOCOL_VERSION {
            return Err(CodecError::InvalidValue {
                field: "protocol version",
                value: u64::from(protocol),
            });
        }
        let interface_version = r.take_u8()?;
        let raw_type = r.take_u8()?;
        let traced = raw_type & TRACE_FLAG != 0;
        let message_type =
            MessageType::from_wire(raw_type & !TRACE_FLAG).ok_or(CodecError::InvalidValue {
                field: "message type",
                value: u64::from(raw_type),
            })?;
        let raw_code = r.take_u8()?;
        let return_code = ReturnCode::from_wire(raw_code).ok_or(CodecError::InvalidValue {
            field: "return code",
            value: u64::from(raw_code),
        })?;
        let trace = if traced {
            TraceCtx::new(r.take_u64()?, r.take_u64()?)
        } else {
            TraceCtx::NONE
        };
        let ext = if traced { TRACE_EXT_LEN } else { 0 };
        let payload = r.peek_rest();
        if length as usize != 8 + ext + payload.len() {
            return Err(CodecError::LengthOutOfRange {
                len: length as usize,
                max: 8 + ext + payload.len(),
            });
        }
        let header = SomeIpHeader {
            service,
            method,
            payload_len: payload.len() as u32,
            client,
            session,
            interface_version,
            message_type,
            return_code,
            trace,
        };
        Ok((header, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_request() {
        let h = SomeIpHeader::request(ServiceId(0x1234), MethodId(0x0421), 7, 99);
        let payload = b"set_speed(80)";
        let wire = h.encode(payload);
        assert_eq!(wire.len(), HEADER_LEN + payload.len());
        let (decoded, p) = SomeIpHeader::decode(&wire).expect("well-formed datagram must decode");
        assert_eq!(p, payload);
        assert_eq!(decoded.service, ServiceId(0x1234));
        assert_eq!(decoded.method, MethodId(0x0421));
        assert_eq!(decoded.client, 7);
        assert_eq!(decoded.session, 99);
        assert_eq!(decoded.message_type, MessageType::Request);
        assert_eq!(decoded.payload_len, payload.len() as u32);
    }

    #[test]
    fn roundtrip_all_types_and_codes() {
        for ty in [
            MessageType::Request,
            MessageType::RequestNoReturn,
            MessageType::Notification,
            MessageType::Response,
            MessageType::Error,
            MessageType::StreamData,
        ] {
            for code in [
                ReturnCode::Ok,
                ReturnCode::NotOk,
                ReturnCode::UnknownService,
                ReturnCode::UnknownMethod,
                ReturnCode::NotReachable,
            ] {
                let mut h = SomeIpHeader::notification(ServiceId(1), MethodId(2));
                h.message_type = ty;
                h.return_code = code;
                let wire = h.encode(&[]);
                let (d, _) = SomeIpHeader::decode(&wire).expect("well-formed datagram must decode");
                assert_eq!(d.message_type, ty);
                assert_eq!(d.return_code, code);
            }
        }
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let h = SomeIpHeader::request(ServiceId(0x10), MethodId(0x20), 1, 2)
            .with_trace(TraceCtx::new(0xF00D, 3));
        let mut buf = Vec::new();
        h.encode_into(b"first", &mut buf);
        assert_eq!(buf, h.encode(b"first"));
        let cap = buf.capacity();
        // Re-encoding a same-size payload reuses the warmed buffer.
        h.encode_into(b"again", &mut buf);
        assert_eq!(buf, h.encode(b"again"));
        assert_eq!(buf.capacity(), cap, "warmed buffer must be reused");
        let (decoded, p) = SomeIpHeader::decode(&buf).expect("well-formed datagram must decode");
        assert_eq!(p, b"again");
        assert_eq!(decoded.trace, TraceCtx::new(0xF00D, 3));
    }

    #[test]
    fn rejects_wrong_protocol_version() {
        let h = SomeIpHeader::request(ServiceId(1), MethodId(2), 3, 4);
        let mut wire = h.encode(&[]);
        wire[12] = 9; // protocol version byte
        assert!(matches!(
            SomeIpHeader::decode(&wire),
            Err(CodecError::InvalidValue {
                field: "protocol version",
                ..
            })
        ));
    }

    #[test]
    fn rejects_unknown_type_and_code() {
        let h = SomeIpHeader::request(ServiceId(1), MethodId(2), 3, 4);
        let mut wire = h.encode(&[]);
        wire[14] = 0x77;
        assert!(SomeIpHeader::decode(&wire).is_err());
        let mut wire2 = h.encode(&[]);
        wire2[15] = 0x99;
        assert!(SomeIpHeader::decode(&wire2).is_err());
    }

    #[test]
    fn traced_frame_round_trips_and_untraced_is_unchanged() {
        let plain = SomeIpHeader::request(ServiceId(1), MethodId(2), 3, 4);
        let traced = plain.with_trace(TraceCtx::new(0xDEAD_BEEF, 42));
        let payload = b"ctx";
        let wire = traced.encode(payload);
        assert_eq!(wire.len(), HEADER_LEN + TRACE_EXT_LEN + payload.len());
        assert_eq!(wire[14] & TRACE_FLAG, TRACE_FLAG);
        let (decoded, p) = SomeIpHeader::decode(&wire).expect("well-formed datagram must decode");
        assert_eq!(p, payload);
        assert_eq!(decoded.trace, TraceCtx::new(0xDEAD_BEEF, 42));
        assert_eq!(decoded.message_type, MessageType::Request);
        // An untraced header encodes byte-identically to the pre-extension
        // format: no flag, no extra bytes.
        let wire = plain.encode(payload);
        assert_eq!(wire.len(), HEADER_LEN + payload.len());
        assert_eq!(wire[14] & TRACE_FLAG, 0);
        let (decoded, _) = SomeIpHeader::decode(&wire).expect("well-formed datagram must decode");
        assert_eq!(decoded.trace, TraceCtx::NONE);
    }

    #[test]
    fn rejects_truncated_trace_extension() {
        let h =
            SomeIpHeader::request(ServiceId(1), MethodId(2), 3, 4).with_trace(TraceCtx::new(9, 9));
        let mut wire = h.encode(&[]);
        wire.truncate(HEADER_LEN + TRACE_EXT_LEN - 1);
        assert!(SomeIpHeader::decode(&wire).is_err());
    }

    #[test]
    fn rejects_inconsistent_length() {
        let h = SomeIpHeader::request(ServiceId(1), MethodId(2), 3, 4);
        let mut wire = h.encode(b"abc");
        wire.truncate(wire.len() - 1);
        assert!(SomeIpHeader::decode(&wire).is_err());
    }

    #[test]
    fn rejects_truncated_header() {
        assert!(SomeIpHeader::decode(&[0u8; 10]).is_err());
    }
}
