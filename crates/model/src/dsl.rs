//! The textual DSL: lexer, recursive-descent parser, pretty-printer.
//!
//! One source file describes all three sub-models of §2.2 — hardware,
//! interfaces, deployment — in a block syntax:
//!
//! ```text
//! system {
//!   hardware {
//!     ecu "body"    { id 0 class low }
//!     ecu "gateway" { id 1 class domain }
//!     bus "can0"    { id 0 can 500000 attach [0 1] }
//!   }
//!   interface "speed" {
//!     id 10 owner 1 version 1
//!     event "speed" { id 1 payload {speed_kmh: f64} latency 10ms critical }
//!     method "set_limit" { id 2 request {limit: u32} response bool }
//!   }
//!   application "ctrl" {
//!     id 1 deterministic asil C provides [10] period 10ms work 2.5 memory 512
//!   }
//!   application "hmi" {
//!     id 2 non-deterministic asil QM consumes [10 event 1] period 50ms work 1 memory 1024
//!   }
//!   deployment {
//!     app 1 on 1
//!     app 2 on any [0 1]
//!   }
//! }
//! ```
//!
//! [`print_model`] emits this syntax; `parse_model(print_model(m)) == m`
//! is property-tested.

use crate::ir::{
    AppModel, ConsumedPort, Deployment, EventDef, MappingChoice, MethodDef, PortKind,
    ServiceInterface, StreamDef, SystemModel,
};
use dynplat_comm::QosSpec;
use dynplat_common::time::SimDuration;
use dynplat_common::value::DataType;
use dynplat_common::{AppId, AppKind, Asil, BusId, EcuId, EventGroupId, MethodId, ServiceId};
use dynplat_hw::ecu::{CpuSpec, CryptoSupport, EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use std::fmt;

/// A parse failure with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Line number (1-based).
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------- lexer --

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Number(f64, String), // value + unit suffix ("" if none)
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Colon,
    Comma,
    Semi,
    Pipe,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Number(n, u) => write!(f, "{n}{u}"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Colon => write!(f, ":"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Pipe => write!(f, "|"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // comment to end of line
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                out.push((Tok::LBrace, line));
                chars.next();
            }
            '}' => {
                out.push((Tok::RBrace, line));
                chars.next();
            }
            '[' => {
                out.push((Tok::LBracket, line));
                chars.next();
            }
            ']' => {
                out.push((Tok::RBracket, line));
                chars.next();
            }
            '(' => {
                out.push((Tok::LParen, line));
                chars.next();
            }
            ')' => {
                out.push((Tok::RParen, line));
                chars.next();
            }
            ':' => {
                out.push((Tok::Colon, line));
                chars.next();
            }
            ',' => {
                out.push((Tok::Comma, line));
                chars.next();
            }
            ';' => {
                out.push((Tok::Semi, line));
                chars.next();
            }
            '|' => {
                out.push((Tok::Pipe, line));
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => {
                            return Err(ParseError {
                                line,
                                message: "unterminated string".into(),
                            })
                        }
                        Some(c) => s.push(c),
                    }
                }
                out.push((Tok::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let mut unit = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphabetic() {
                        unit.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let value: f64 = num.parse().map_err(|_| ParseError {
                    line,
                    message: format!("bad number `{num}`"),
                })?;
                out.push((Tok::Number(value, unit), line));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(s), line));
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    out.push((Tok::Eof, line));
    Ok(out)
}

// --------------------------------------------------------------- parser --

/// Deepest data-type nesting (arrays and records) [`parse_model`] accepts.
/// The limit bounds the type parser's recursion, so hostile input gets a
/// [`ParseError`] instead of overflowing the stack.
const MAX_TYPE_DEPTH: usize = 64;

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Current [`Parser::data_type`] recursion depth.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {other}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw) && {
            self.bump();
            true
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Str(s) => Ok(s),
            other => Err(self.err(format!("expected string, found {other}"))),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.bump() {
            Tok::Number(n, unit) if unit.is_empty() => Ok(n),
            Tok::Number(_, unit) => Err(self.err(format!("unexpected unit `{unit}`"))),
            other => Err(self.err(format!("expected number, found {other}"))),
        }
    }

    fn integer(&mut self) -> Result<u64, ParseError> {
        let n = self.number()?;
        if n.fract() != 0.0 || n < 0.0 {
            return Err(self.err(format!("expected integer, found {n}")));
        }
        Ok(n as u64)
    }

    fn duration(&mut self) -> Result<SimDuration, ParseError> {
        match self.bump() {
            Tok::Number(n, unit) => {
                let ns = match unit.as_str() {
                    "ns" => n,
                    "us" => n * 1e3,
                    "ms" => n * 1e6,
                    "s" => n * 1e9,
                    "" => return Err(self.err("duration needs a unit (ns/us/ms/s)")),
                    other => return Err(self.err(format!("unknown time unit `{other}`"))),
                };
                Ok(SimDuration::from_nanos(ns.round() as u64))
            }
            other => Err(self.err(format!("expected duration, found {other}"))),
        }
    }

    // -- types -----------------------------------------------------------

    fn data_type(&mut self) -> Result<DataType, ParseError> {
        if self.depth == MAX_TYPE_DEPTH {
            return Err(self.err(format!("type nesting deeper than {MAX_TYPE_DEPTH} levels")));
        }
        self.depth += 1;
        let ty = self.data_type_unbounded();
        self.depth -= 1;
        ty
    }

    fn data_type_unbounded(&mut self) -> Result<DataType, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => match s.as_str() {
                "bool" => {
                    self.bump();
                    Ok(DataType::Bool)
                }
                "u8" => {
                    self.bump();
                    Ok(DataType::U8)
                }
                "u16" => {
                    self.bump();
                    Ok(DataType::U16)
                }
                "u32" => {
                    self.bump();
                    Ok(DataType::U32)
                }
                "u64" => {
                    self.bump();
                    Ok(DataType::U64)
                }
                "i64" => {
                    self.bump();
                    Ok(DataType::I64)
                }
                "f64" => {
                    self.bump();
                    Ok(DataType::F64)
                }
                "string" => {
                    self.bump();
                    Ok(DataType::Str)
                }
                "blob" => {
                    self.bump();
                    Ok(DataType::Blob)
                }
                "enum" => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let mut variants = vec![self.ident()?];
                    while self.peek() == &Tok::Pipe {
                        self.bump();
                        variants.push(self.ident()?);
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(DataType::Enum(variants))
                }
                other => Err(self.err(format!("unknown type `{other}`"))),
            },
            Tok::LBracket => {
                self.bump();
                let elem = self.data_type()?;
                self.expect(&Tok::Semi)?;
                let len = self.integer()? as usize;
                self.expect(&Tok::RBracket)?;
                Ok(DataType::array(elem, len))
            }
            Tok::LBrace => {
                self.bump();
                let mut fields = Vec::new();
                while self.peek() != &Tok::RBrace {
                    let name = self.ident()?;
                    self.expect(&Tok::Colon)?;
                    let ty = self.data_type()?;
                    fields.push((name, ty));
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok(DataType::Record(fields))
            }
            other => Err(self.err(format!("expected type, found {other}"))),
        }
    }

    // -- qos (trailing attributes) ----------------------------------------

    fn qos(&mut self) -> Result<QosSpec, ParseError> {
        let mut qos = QosSpec::best_effort();
        loop {
            if self.eat_kw("latency") {
                qos.max_latency = Some(self.duration()?);
            } else if self.eat_kw("jitter") {
                qos.max_jitter = Some(self.duration()?);
            } else if self.eat_kw("bandwidth") {
                qos.min_bandwidth = Some(self.integer()?);
            } else if self.eat_kw("critical") {
                qos.critical = true;
            } else {
                break;
            }
        }
        Ok(qos)
    }

    // -- hardware ----------------------------------------------------------

    fn hardware(&mut self) -> Result<HwTopology, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut topo = HwTopology::new();
        while self.peek() != &Tok::RBrace {
            if self.eat_kw("ecu") {
                let ecu = self.ecu()?;
                topo.add_ecu(ecu).map_err(|e| self.err(e.to_string()))?;
            } else if self.eat_kw("bus") {
                let bus = self.bus()?;
                topo.add_bus(bus).map_err(|e| self.err(e.to_string()))?;
            } else {
                return Err(self.err(format!("expected `ecu` or `bus`, found {}", self.peek())));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(topo)
    }

    fn ecu(&mut self) -> Result<EcuSpec, ParseError> {
        let name = self.string()?;
        self.expect(&Tok::LBrace)?;
        self.expect_kw("id")?;
        let id = EcuId(self.integer()? as u16);
        let mut builder = EcuSpec::builder(id, name);
        let mut cpu: Option<(u32, u8, u32)> = None;
        while self.peek() != &Tok::RBrace {
            if self.eat_kw("class") {
                let class = match self.ident()?.as_str() {
                    "low" => EcuClass::LowEnd,
                    "domain" => EcuClass::Domain,
                    "high" => EcuClass::HighPerformance,
                    other => return Err(self.err(format!("unknown ECU class `{other}`"))),
                };
                builder = builder.class(class);
            } else if self.eat_kw("ram") {
                builder = builder.ram_kib(self.integer()? as u32);
            } else if self.eat_kw("mmu") {
                builder = builder.mmu(self.bool_value()?);
            } else if self.eat_kw("gpu") {
                builder = builder.gpu(self.bool_value()?);
            } else if self.eat_kw("cost") {
                builder = builder.cost(self.integer()? as u32);
            } else if self.eat_kw("crypto") {
                let c = match self.ident()?.as_str() {
                    "none" => CryptoSupport::None,
                    "software" => CryptoSupport::Software,
                    "accelerator" => CryptoSupport::Accelerator,
                    "hsm" => CryptoSupport::Hsm,
                    other => return Err(self.err(format!("unknown crypto tier `{other}`"))),
                };
                builder = builder.crypto(c);
            } else if self.eat_kw("cpu") {
                let freq = self.integer()? as u32;
                let cores = self.integer()? as u8;
                let mips = self.integer()? as u32;
                cpu = Some((freq, cores, mips));
            } else {
                return Err(self.err(format!("unknown ECU attribute {}", self.peek())));
            }
        }
        self.expect(&Tok::RBrace)?;
        if let Some((freq, cores, mips)) = cpu {
            builder = builder.cpu(CpuSpec::new(freq, cores, mips));
        }
        Ok(builder.build())
    }

    fn bool_value(&mut self) -> Result<bool, ParseError> {
        match self.ident()?.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(self.err(format!("expected true/false, found `{other}`"))),
        }
    }

    fn bus(&mut self) -> Result<BusSpec, ParseError> {
        let name = self.string()?;
        self.expect(&Tok::LBrace)?;
        self.expect_kw("id")?;
        let id = BusId(self.integer()? as u16);
        let kind_name = self.ident()?;
        let bitrate = self.integer()?;
        let kind = match kind_name.as_str() {
            "can" => BusKind::Can { bitrate },
            "flexray" => BusKind::FlexRay { bitrate },
            "ethernet" => BusKind::Ethernet { bitrate },
            other => return Err(self.err(format!("unknown bus kind `{other}`"))),
        };
        self.expect_kw("attach")?;
        self.expect(&Tok::LBracket)?;
        let mut attached = Vec::new();
        while self.peek() != &Tok::RBracket {
            attached.push(EcuId(self.integer()? as u16));
        }
        self.expect(&Tok::RBracket)?;
        self.expect(&Tok::RBrace)?;
        Ok(BusSpec::new(id, name, kind, attached))
    }

    // -- interfaces ----------------------------------------------------------

    fn interface(&mut self) -> Result<ServiceInterface, ParseError> {
        let name = self.string()?;
        self.expect(&Tok::LBrace)?;
        self.expect_kw("id")?;
        let id = ServiceId(self.integer()? as u16);
        self.expect_kw("owner")?;
        let owner = AppId(self.integer()? as u32);
        self.expect_kw("version")?;
        let version = self.integer()? as u8;
        let mut methods = Vec::new();
        let mut events = Vec::new();
        let mut streams = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.eat_kw("method") {
                let name = self.string()?;
                self.expect(&Tok::LBrace)?;
                self.expect_kw("id")?;
                let id = MethodId(self.integer()? as u16);
                self.expect_kw("request")?;
                let request = self.data_type()?;
                self.expect_kw("response")?;
                let response = self.data_type()?;
                let qos = self.qos()?;
                self.expect(&Tok::RBrace)?;
                methods.push(MethodDef {
                    id,
                    name,
                    request,
                    response,
                    qos,
                });
            } else if self.eat_kw("event") {
                let name = self.string()?;
                self.expect(&Tok::LBrace)?;
                self.expect_kw("id")?;
                let id = EventGroupId(self.integer()? as u16);
                self.expect_kw("payload")?;
                let payload = self.data_type()?;
                let qos = self.qos()?;
                self.expect(&Tok::RBrace)?;
                events.push(EventDef {
                    id,
                    name,
                    payload,
                    qos,
                });
            } else if self.eat_kw("stream") {
                let name = self.string()?;
                self.expect(&Tok::LBrace)?;
                self.expect_kw("id")?;
                let id = EventGroupId(self.integer()? as u16);
                self.expect_kw("frame")?;
                let frame = self.data_type()?;
                let qos = self.qos()?;
                self.expect(&Tok::RBrace)?;
                streams.push(StreamDef {
                    id,
                    name,
                    frame,
                    qos,
                });
            } else {
                return Err(self.err(format!(
                    "expected `method`/`event`/`stream`, found {}",
                    self.peek()
                )));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(ServiceInterface {
            id,
            name,
            owner,
            version,
            methods,
            events,
            streams,
        })
    }

    // -- applications ----------------------------------------------------------

    fn application(&mut self) -> Result<AppModel, ParseError> {
        let name = self.string()?;
        self.expect(&Tok::LBrace)?;
        self.expect_kw("id")?;
        let id = AppId(self.integer()? as u32);
        let kind = match self.ident()?.as_str() {
            "deterministic" => AppKind::Deterministic,
            "non-deterministic" => AppKind::NonDeterministic,
            other => return Err(self.err(format!("unknown app kind `{other}`"))),
        };
        self.expect_kw("asil")?;
        let asil: Asil = self
            .ident()?
            .parse()
            .map_err(|e: dynplat_common::criticality::ParseAsilError| self.err(e.to_string()))?;
        let mut provides = Vec::new();
        let mut consumes = Vec::new();
        let mut period = SimDuration::from_millis(100);
        let mut work_mi = 1.0;
        let mut memory_kib = 64;
        let mut needs_gpu = false;
        while self.peek() != &Tok::RBrace {
            if self.eat_kw("provides") {
                self.expect(&Tok::LBracket)?;
                while self.peek() != &Tok::RBracket {
                    provides.push(ServiceId(self.integer()? as u16));
                }
                self.expect(&Tok::RBracket)?;
            } else if self.eat_kw("consumes") {
                self.expect(&Tok::LBracket)?;
                while self.peek() != &Tok::RBracket {
                    let service = ServiceId(self.integer()? as u16);
                    let kind = match self.ident()?.as_str() {
                        "event" => PortKind::Event(EventGroupId(self.integer()? as u16)),
                        "method" => PortKind::Method(MethodId(self.integer()? as u16)),
                        "stream" => PortKind::Stream(EventGroupId(self.integer()? as u16)),
                        other => return Err(self.err(format!("unknown port kind `{other}`"))),
                    };
                    consumes.push(ConsumedPort { service, kind });
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    }
                }
                self.expect(&Tok::RBracket)?;
            } else if self.eat_kw("period") {
                period = self.duration()?;
            } else if self.eat_kw("work") {
                work_mi = self.number()?;
            } else if self.eat_kw("memory") {
                memory_kib = self.integer()? as u32;
            } else if self.eat_kw("gpu") {
                needs_gpu = true;
            } else {
                return Err(self.err(format!("unknown application attribute {}", self.peek())));
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(AppModel {
            id,
            name,
            kind,
            asil,
            provides,
            consumes,
            period,
            work_mi,
            memory_kib,
            needs_gpu,
        })
    }

    // -- deployment ----------------------------------------------------------

    fn deployment(&mut self) -> Result<Deployment, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut deployment = Deployment::default();
        while self.peek() != &Tok::RBrace {
            self.expect_kw("app")?;
            let app = AppId(self.integer()? as u32);
            self.expect_kw("on")?;
            let choice = if self.eat_kw("any") {
                self.expect(&Tok::LBracket)?;
                let mut list = Vec::new();
                while self.peek() != &Tok::RBracket {
                    list.push(EcuId(self.integer()? as u16));
                }
                self.expect(&Tok::RBracket)?;
                MappingChoice::AnyOf(list)
            } else {
                MappingChoice::Fixed(EcuId(self.integer()? as u16))
            };
            deployment.mapping.insert(app, choice);
            if self.eat_kw("replicas") {
                let n = self.integer()? as u8;
                if n == 0 {
                    return Err(self.err("replica count must be at least 1"));
                }
                deployment.replicas.insert(app, n);
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(deployment)
    }

    fn system(&mut self) -> Result<SystemModel, ParseError> {
        self.expect_kw("system")?;
        self.expect(&Tok::LBrace)?;
        let mut model = SystemModel::default();
        while self.peek() != &Tok::RBrace {
            if self.eat_kw("hardware") {
                model.hardware = self.hardware()?;
            } else if self.eat_kw("interface") {
                let iface = self.interface()?;
                model.interfaces.push(iface);
            } else if self.eat_kw("application") {
                let app = self.application()?;
                model.applications.push(app);
            } else if self.eat_kw("deployment") {
                model.deployment = self.deployment()?;
            } else {
                return Err(self.err(format!("unexpected top-level item {}", self.peek())));
            }
        }
        self.expect(&Tok::RBrace)?;
        if self.peek() != &Tok::Eof {
            return Err(self.err(format!("trailing input: {}", self.peek())));
        }
        Ok(model)
    }
}

/// Parses a complete system model from DSL text.
///
/// # Errors
///
/// Returns a [`ParseError`] with line information on malformed input.
pub fn parse_model(input: &str) -> Result<SystemModel, ParseError> {
    let toks = lex(input)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
    }
    .system()
}

// -------------------------------------------------------------- printer --

fn print_type(ty: &DataType) -> String {
    // The `Display` impl of `DataType` already emits parseable syntax.
    ty.to_string()
}

fn print_duration(d: SimDuration) -> String {
    d.to_string() // SimDuration Display matches the lexer's unit syntax
}

fn print_qos(qos: &QosSpec) -> String {
    let mut out = String::new();
    if let Some(l) = qos.max_latency {
        out.push_str(&format!(" latency {}", print_duration(l)));
    }
    if let Some(j) = qos.max_jitter {
        out.push_str(&format!(" jitter {}", print_duration(j)));
    }
    if let Some(b) = qos.min_bandwidth {
        out.push_str(&format!(" bandwidth {b}"));
    }
    if qos.critical {
        out.push_str(" critical");
    }
    out
}

/// Pretty-prints a model in the DSL syntax accepted by [`parse_model`].
pub fn print_model(model: &SystemModel) -> String {
    let mut s = String::from("system {\n");
    s.push_str("  hardware {\n");
    for ecu in model.hardware.ecus() {
        let cpu = ecu.cpu();
        s.push_str(&format!(
            "    ecu \"{}\" {{ id {} cpu {} {} {} ram {} mmu {} crypto {} gpu {} cost {} }}\n",
            ecu.name(),
            ecu.id().raw(),
            cpu.freq_mhz,
            cpu.cores,
            cpu.mips,
            ecu.ram_kib(),
            ecu.has_mmu(),
            ecu.crypto(),
            ecu.has_gpu(),
            ecu.cost(),
        ));
    }
    for bus in model.hardware.buses() {
        let kind = match bus.kind {
            BusKind::Can { bitrate } => format!("can {bitrate}"),
            BusKind::FlexRay { bitrate } => format!("flexray {bitrate}"),
            BusKind::Ethernet { bitrate } => format!("ethernet {bitrate}"),
        };
        let attach: Vec<String> = bus.attached.iter().map(|e| e.raw().to_string()).collect();
        s.push_str(&format!(
            "    bus \"{}\" {{ id {} {} attach [{}] }}\n",
            bus.name,
            bus.id.raw(),
            kind,
            attach.join(" ")
        ));
    }
    s.push_str("  }\n");
    for iface in &model.interfaces {
        s.push_str(&format!(
            "  interface \"{}\" {{\n    id {} owner {} version {}\n",
            iface.name,
            iface.id.raw(),
            iface.owner.raw(),
            iface.version
        ));
        for m in &iface.methods {
            s.push_str(&format!(
                "    method \"{}\" {{ id {} request {} response {}{} }}\n",
                m.name,
                m.id.raw(),
                print_type(&m.request),
                print_type(&m.response),
                print_qos(&m.qos)
            ));
        }
        for e in &iface.events {
            s.push_str(&format!(
                "    event \"{}\" {{ id {} payload {}{} }}\n",
                e.name,
                e.id.raw(),
                print_type(&e.payload),
                print_qos(&e.qos)
            ));
        }
        for st in &iface.streams {
            s.push_str(&format!(
                "    stream \"{}\" {{ id {} frame {}{} }}\n",
                st.name,
                st.id.raw(),
                print_type(&st.frame),
                print_qos(&st.qos)
            ));
        }
        s.push_str("  }\n");
    }
    for app in &model.applications {
        let kind = match app.kind {
            AppKind::Deterministic => "deterministic",
            AppKind::NonDeterministic => "non-deterministic",
        };
        s.push_str(&format!(
            "  application \"{}\" {{\n    id {} {} asil {}\n",
            app.name,
            app.id.raw(),
            kind,
            app.asil
        ));
        if !app.provides.is_empty() {
            let p: Vec<String> = app.provides.iter().map(|x| x.raw().to_string()).collect();
            s.push_str(&format!("    provides [{}]\n", p.join(" ")));
        }
        if !app.consumes.is_empty() {
            let c: Vec<String> = app
                .consumes
                .iter()
                .map(|p| {
                    let (kw, id) = match p.kind {
                        PortKind::Event(e) => ("event", u64::from(e.raw())),
                        PortKind::Method(m) => ("method", u64::from(m.raw())),
                        PortKind::Stream(st) => ("stream", u64::from(st.raw())),
                    };
                    format!("{} {} {}", p.service.raw(), kw, id)
                })
                .collect();
            s.push_str(&format!("    consumes [{}]\n", c.join(", ")));
        }
        s.push_str(&format!(
            "    period {} work {} memory {}{}\n  }}\n",
            print_duration(app.period),
            app.work_mi,
            app.memory_kib,
            if app.needs_gpu { " gpu" } else { "" }
        ));
    }
    s.push_str("  deployment {\n");
    for (app, choice) in &model.deployment.mapping {
        let replicas = model.deployment.replicas_of(*app);
        let suffix = if replicas > 1 {
            format!(" replicas {replicas}")
        } else {
            String::new()
        };
        match choice {
            MappingChoice::Fixed(e) => {
                s.push_str(&format!("    app {} on {}{}\n", app.raw(), e.raw(), suffix));
            }
            MappingChoice::AnyOf(list) => {
                let l: Vec<String> = list.iter().map(|e| e.raw().to_string()).collect();
                s.push_str(&format!(
                    "    app {} on any [{}]{}\n",
                    app.raw(),
                    l.join(" "),
                    suffix
                ));
            }
        }
    }
    s.push_str("  }\n}\n");
    s
}

/// The ASIL token must print in a form the parser reads back; `Display` of
/// [`Asil`] emits `ASIL-C` which the lexer reads as one identifier.
#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
# demo vehicle
system {
  hardware {
    ecu "body"    { id 0 class low }
    ecu "gateway" { id 1 class domain ram 32768 }
    ecu "adas"    { id 2 class high }
    bus "can0" { id 0 can 500000 attach [0 1] }
    bus "eth0" { id 1 ethernet 100000000 attach [1 2] }
  }
  interface "speed" {
    id 10 owner 1 version 1
    event "speed" { id 1 payload {speed_kmh: f64, ticks: [u32; 4]} latency 10ms critical }
    method "set_limit" { id 2 request {limit: u32} response bool latency 20ms }
    stream "video" { id 3 frame blob bandwidth 2000000 }
  }
  application "ctrl" {
    id 1 deterministic asil C
    provides [10]
    period 10ms work 2.5 memory 512
  }
  application "hmi" {
    id 2 non-deterministic asil QM
    consumes [10 event 1, 10 stream 3]
    period 50ms work 1 memory 1024 gpu
  }
  deployment {
    app 1 on 1
    app 2 on any [1 2]
  }
}
"#;

    #[test]
    fn parses_demo() {
        let model = parse_model(DEMO).unwrap();
        assert_eq!(model.hardware.ecu_count(), 3);
        assert_eq!(model.interfaces.len(), 1);
        assert_eq!(model.applications.len(), 2);
        let iface = &model.interfaces[0];
        assert_eq!(iface.owner, AppId(1));
        assert_eq!(iface.methods.len(), 1);
        assert_eq!(iface.events.len(), 1);
        assert_eq!(iface.streams.len(), 1);
        assert!(iface.events[0].qos.critical);
        assert_eq!(
            iface.events[0].qos.max_latency,
            Some(SimDuration::from_millis(10))
        );
        let hmi = model.application(AppId(2)).unwrap();
        assert_eq!(hmi.consumes.len(), 2);
        assert!(hmi.needs_gpu);
        assert_eq!(model.deployment.variant_count(), 2);
    }

    #[test]
    fn roundtrip_print_parse() {
        let model = parse_model(DEMO).unwrap();
        let printed = print_model(&model);
        let reparsed =
            parse_model(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(reparsed, model);
    }

    #[test]
    fn record_and_enum_types_roundtrip() {
        let src = r#"
system {
  hardware { ecu "a" { id 0 class low } }
  interface "i" {
    id 1 owner 1 version 1
    event "e" { id 1 payload {mode: enum(off|eco|sport), data: [f64; 2]} }
  }
  application "p" { id 1 deterministic asil D provides [1] period 5ms work 1 memory 64 }
  deployment { app 1 on 0 }
}
"#;
        let model = parse_model(src).unwrap();
        let ty = &model.interfaces[0].events[0].payload;
        assert_eq!(
            *ty,
            DataType::Record(vec![
                (
                    "mode".into(),
                    DataType::Enum(vec!["off".into(), "eco".into(), "sport".into()])
                ),
                ("data".into(), DataType::array(DataType::F64, 2)),
            ])
        );
        let printed = print_model(&model);
        assert_eq!(parse_model(&printed).unwrap(), model);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "system {\n  hardware {\n    ecu \"a\" { id 0 klass low }\n  }\n}";
        let err = parse_model(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("klass"));
    }

    #[test]
    fn unterminated_string_is_rejected() {
        let err = parse_model("system { hardware { ecu \"a { id 0 } } }").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn duration_requires_unit() {
        let src = r#"
system {
  hardware { ecu "a" { id 0 class low } }
  application "p" { id 1 deterministic asil A period 10 work 1 memory 64 }
  deployment { app 1 on 0 }
}
"#;
        let err = parse_model(src).unwrap_err();
        assert!(err.message.contains("unit"), "got: {err}");
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = "# header\nsystem { # inline\n hardware { } deployment { } }";
        let model = parse_model(src).unwrap();
        assert_eq!(model.hardware.ecu_count(), 0);
    }

    /// A model whose one event payload is `u8` nested in `depth` arrays.
    fn nested_payload(depth: usize) -> String {
        format!(
            r#"system {{
  hardware {{ ecu "a" {{ id 0 class low }} }}
  interface "i" {{ id 1 owner 1 version 1 event "e" {{ id 1 payload {}u8{} }} }}
  deployment {{ }}
}}"#,
            "[".repeat(depth),
            "; 1]".repeat(depth)
        )
    }

    #[test]
    fn deeply_nested_types_are_rejected_not_overflowed() {
        assert!(parse_model(&nested_payload(MAX_TYPE_DEPTH - 1)).is_ok());
        let err = parse_model(&nested_payload(MAX_TYPE_DEPTH)).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {err}");
        let err = parse_model(&nested_payload(200_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse_model("system { hardware { } } extra").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn cpu_override_roundtrips() {
        let src = r#"
system {
  hardware { ecu "x" { id 0 class low cpu 400 2 800 } }
  deployment { }
}
"#;
        let model = parse_model(src).unwrap();
        let ecu = model.hardware.ecu(EcuId(0)).unwrap();
        assert_eq!(ecu.cpu().freq_mhz, 400);
        assert_eq!(ecu.cpu().cores, 2);
        assert_eq!(ecu.cpu().mips, 800);
        let printed = print_model(&model);
        assert_eq!(parse_model(&printed).unwrap(), model);
    }
}
