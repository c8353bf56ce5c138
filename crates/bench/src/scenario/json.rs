//! Serialization for [`ScenarioSpec`]: a small self-contained JSON
//! encoder/decoder.
//!
//! The build environment vendors no serde, so the scenario API carries its
//! own (tiny) JSON layer. Enums serialize as objects with a `"kind"`
//! discriminator; `Option` fields serialize as the value or `null`. The
//! encoding is stable — `ScenarioSpec::from_json_str(spec.to_json_string())`
//! round-trips exactly (verified by tests/scenario_api.rs).

use std::fmt;

use contention_sim::Execution;

use super::spec::{
    AdversarySpec, AlgoSpec, ArrivalSpec, BaselineSpec, BudgetSpec, ChannelSpec, CheckpointPolicy,
    CurveSpec, GSpec, HorizonSpec, JammingSpec, ParamsSpec, RecordMode, ScenarioSpec, SmoothSpec,
};

/// Error raised while parsing or interpreting a spec document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; integers below 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub(crate) fn u64(v: u64) -> Json {
        debug_assert!(v <= (1 << 53), "integer too large for JSON round-trip");
        Json::Num(v as f64)
    }

    pub(crate) fn opt_u64(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::u64)
    }

    pub(crate) fn opt_f64(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }

    pub(crate) fn i64(v: i64) -> Json {
        debug_assert!(
            v.abs() <= (1 << 53),
            "integer too large for JSON round-trip"
        );
        Json::Num(v as f64)
    }

    /// Field `key` of an object, or an error for non-objects and missing
    /// keys.
    pub fn get<'a>(&'a self, key: &str) -> Result<&'a Json, SpecError> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| SpecError::new(format!("missing field `{key}`"))),
            _ => Err(SpecError::new(format!("expected object with `{key}`"))),
        }
    }

    /// The numeric value, or an error for non-numbers.
    pub fn as_f64(&self) -> Result<f64, SpecError> {
        match self {
            Json::Num(x) => Ok(*x),
            _ => Err(SpecError::new("expected number")),
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, SpecError> {
        let x = self.as_f64()?;
        if x.fract() == 0.0 && (0.0..=(1u64 << 53) as f64).contains(&x) {
            Ok(x as u64)
        } else {
            Err(SpecError::new(format!(
                "expected unsigned integer, got {x}"
            )))
        }
    }

    pub(crate) fn as_u32(&self) -> Result<u32, SpecError> {
        let x = self.as_u64()?;
        u32::try_from(x).map_err(|_| SpecError::new(format!("integer {x} exceeds u32")))
    }

    pub(crate) fn as_opt_u64(&self) -> Result<Option<u64>, SpecError> {
        match self {
            Json::Null => Ok(None),
            other => other.as_u64().map(Some),
        }
    }

    pub(crate) fn as_opt_f64(&self) -> Result<Option<f64>, SpecError> {
        match self {
            Json::Null => Ok(None),
            other => other.as_f64().map(Some),
        }
    }

    pub(crate) fn as_i64(&self) -> Result<i64, SpecError> {
        let x = self.as_f64()?;
        if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 {
            Ok(x as i64)
        } else {
            Err(SpecError::new(format!("expected integer, got {x}")))
        }
    }

    pub(crate) fn as_bool(&self) -> Result<bool, SpecError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(SpecError::new("expected boolean")),
        }
    }

    /// The string value, or an error for non-strings.
    pub fn as_str(&self) -> Result<&str, SpecError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(SpecError::new("expected string")),
        }
    }

    /// The array items, or an error for non-arrays.
    pub fn as_arr(&self) -> Result<&[Json], SpecError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(SpecError::new("expected array")),
        }
    }

    pub(crate) fn kind(&self) -> Result<&str, SpecError> {
        self.get("kind")?.as_str()
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity literals; `{x:?}` would emit
                    // text our own parser rejects. Render as null (the
                    // lossy-but-valid convention serde_json also uses).
                    out.push_str("null");
                } else if x.fract() == 0.0 && x.abs() < (1u64 << 53) as f64 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    // `{:?}` prints the shortest representation that
                    // round-trips through f64 parsing.
                    out.push_str(&format!("{x:?}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text.
    pub fn parse(text: &str) -> Result<Json, SpecError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(SpecError::new("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), SpecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SpecError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, SpecError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(SpecError::new("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(SpecError::new("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.number(),
            None => Err(SpecError::new("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, SpecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| SpecError::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| SpecError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| SpecError::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| SpecError::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(SpecError::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s =
                        std::str::from_utf8(rest).map_err(|_| SpecError::new("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(SpecError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, SpecError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| SpecError::new("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| SpecError::new(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------------
// Spec type <-> Json conversions.
// ---------------------------------------------------------------------------

pub(crate) fn g_to_json(g: &GSpec) -> Json {
    match g {
        GSpec::Constant(c) => Json::obj(vec![
            ("kind", Json::Str("constant".into())),
            ("c", Json::Num(*c)),
        ]),
        GSpec::Log => Json::obj(vec![("kind", Json::Str("log".into()))]),
        GSpec::PolyLog(k) => Json::obj(vec![
            ("kind", Json::Str("polylog".into())),
            ("k", Json::u64(u64::from(*k))),
        ]),
        GSpec::ExpSqrtLog(c) => Json::obj(vec![
            ("kind", Json::Str("exp-sqrt-log".into())),
            ("c", Json::Num(*c)),
        ]),
    }
}

pub(crate) fn g_from_json(j: &Json) -> Result<GSpec, SpecError> {
    match j.kind()? {
        "constant" => Ok(GSpec::Constant(j.get("c")?.as_f64()?)),
        "log" => Ok(GSpec::Log),
        "polylog" => Ok(GSpec::PolyLog(j.get("k")?.as_u32()?)),
        "exp-sqrt-log" => Ok(GSpec::ExpSqrtLog(j.get("c")?.as_f64()?)),
        other => Err(SpecError::new(format!("unknown g kind `{other}`"))),
    }
}

fn params_to_json(p: &ParamsSpec) -> Json {
    Json::obj(vec![
        ("g", g_to_json(&p.g)),
        ("a", Json::opt_f64(p.a)),
        ("c2", Json::opt_f64(p.c2)),
        ("c3", Json::opt_f64(p.c3)),
    ])
}

fn params_from_json(j: &Json) -> Result<ParamsSpec, SpecError> {
    Ok(ParamsSpec {
        g: g_from_json(j.get("g")?)?,
        a: j.get("a")?.as_opt_f64()?,
        c2: j.get("c2")?.as_opt_f64()?,
        c3: j.get("c3")?.as_opt_f64()?,
    })
}

fn baseline_to_json(b: &BaselineSpec) -> Json {
    let (kind, extra): (&str, Vec<(&str, Json)>) = match b {
        BaselineSpec::BinaryExponential => ("beb", vec![]),
        BaselineSpec::Polynomial(e) => ("poly", vec![("exponent", Json::Num(*e))]),
        BaselineSpec::Linear => ("linear", vec![]),
        BaselineSpec::SmoothedBeb => ("smoothed-beb", vec![]),
        BaselineSpec::LogBackoff(c) => ("log-backoff", vec![("c", Json::Num(*c))]),
        BaselineSpec::Aloha(p) => ("aloha", vec![("p", Json::Num(*p))]),
        BaselineSpec::PolySchedule(e) => ("poly-schedule", vec![("exponent", Json::Num(*e))]),
        BaselineSpec::Sawtooth => ("sawtooth", vec![]),
        BaselineSpec::FBackoff(g) => ("f-backoff", vec![("g", g_to_json(g))]),
        BaselineSpec::ResetBeb => ("reset-beb", vec![]),
        BaselineSpec::ResetWindowBeb => ("reset-window-beb", vec![]),
        BaselineSpec::CdBackoff => ("cd-beb", vec![]),
        BaselineSpec::CdAloha(p) => ("cd-aloha", vec![("p", Json::Num(*p))]),
    };
    let mut pairs = vec![("kind", Json::Str(kind.into()))];
    pairs.extend(extra);
    Json::obj(pairs)
}

fn baseline_from_json(j: &Json) -> Result<BaselineSpec, SpecError> {
    match j.kind()? {
        "beb" => Ok(BaselineSpec::BinaryExponential),
        "poly" => Ok(BaselineSpec::Polynomial(j.get("exponent")?.as_f64()?)),
        "linear" => Ok(BaselineSpec::Linear),
        "smoothed-beb" => Ok(BaselineSpec::SmoothedBeb),
        "log-backoff" => Ok(BaselineSpec::LogBackoff(j.get("c")?.as_f64()?)),
        "aloha" => Ok(BaselineSpec::Aloha(j.get("p")?.as_f64()?)),
        "poly-schedule" => Ok(BaselineSpec::PolySchedule(j.get("exponent")?.as_f64()?)),
        "sawtooth" => Ok(BaselineSpec::Sawtooth),
        "f-backoff" => Ok(BaselineSpec::FBackoff(g_from_json(j.get("g")?)?)),
        "reset-beb" => Ok(BaselineSpec::ResetBeb),
        "reset-window-beb" => Ok(BaselineSpec::ResetWindowBeb),
        "cd-beb" => Ok(BaselineSpec::CdBackoff),
        "cd-aloha" => Ok(BaselineSpec::CdAloha(j.get("p")?.as_f64()?)),
        other => Err(SpecError::new(format!("unknown baseline `{other}`"))),
    }
}

pub(crate) fn algo_to_json(a: &AlgoSpec) -> Json {
    match a {
        AlgoSpec::Cjz(p) => Json::obj(vec![
            ("kind", Json::Str("cjz".into())),
            ("params", params_to_json(p)),
        ]),
        AlgoSpec::CjzNoSwap(p) => Json::obj(vec![
            ("kind", Json::Str("cjz-noswap".into())),
            ("params", params_to_json(p)),
        ]),
        AlgoSpec::CjzOracle(p) => Json::obj(vec![
            ("kind", Json::Str("cjz-oracle".into())),
            ("params", params_to_json(p)),
        ]),
        AlgoSpec::Baseline(b) => Json::obj(vec![
            ("kind", Json::Str("baseline".into())),
            ("baseline", baseline_to_json(b)),
        ]),
    }
}

pub(crate) fn algo_from_json(j: &Json) -> Result<AlgoSpec, SpecError> {
    match j.kind()? {
        "cjz" => Ok(AlgoSpec::Cjz(params_from_json(j.get("params")?)?)),
        "cjz-noswap" => Ok(AlgoSpec::CjzNoSwap(params_from_json(j.get("params")?)?)),
        "cjz-oracle" => Ok(AlgoSpec::CjzOracle(params_from_json(j.get("params")?)?)),
        "baseline" => Ok(AlgoSpec::Baseline(baseline_from_json(j.get("baseline")?)?)),
        other => Err(SpecError::new(format!("unknown algo kind `{other}`"))),
    }
}

fn arrival_to_json(a: &ArrivalSpec) -> Json {
    match a {
        ArrivalSpec::None => Json::obj(vec![("kind", Json::Str("none".into()))]),
        ArrivalSpec::Batch { at, count } => Json::obj(vec![
            ("kind", Json::Str("batch".into())),
            ("at", Json::u64(*at)),
            ("count", Json::u64(u64::from(*count))),
        ]),
        ArrivalSpec::Poisson { rate, horizon } => Json::obj(vec![
            ("kind", Json::Str("poisson".into())),
            ("rate", Json::Num(*rate)),
            ("horizon", Json::opt_u64(*horizon)),
        ]),
        ArrivalSpec::Bursty {
            period,
            phase,
            size,
            bursts,
        } => Json::obj(vec![
            ("kind", Json::Str("bursty".into())),
            ("period", Json::u64(*period)),
            ("phase", Json::u64(*phase)),
            ("size", Json::u64(u64::from(*size))),
            ("bursts", Json::u64(*bursts)),
        ]),
        ArrivalSpec::Scripted { slots } => Json::obj(vec![
            ("kind", Json::Str("scripted".into())),
            (
                "slots",
                Json::Arr(
                    slots
                        .iter()
                        .map(|(s, c)| Json::Arr(vec![Json::u64(*s), Json::u64(u64::from(*c))]))
                        .collect(),
                ),
            ),
        ]),
        ArrivalSpec::UniformRandom { total, horizon } => Json::obj(vec![
            ("kind", Json::Str("uniform-random".into())),
            ("total", Json::u64(*total)),
            ("horizon", Json::u64(*horizon)),
        ]),
        ArrivalSpec::Saturated {
            target,
            budget,
            horizon,
        } => Json::obj(vec![
            ("kind", Json::Str("saturated".into())),
            ("target", Json::opt_u64(*target)),
            ("budget", Json::opt_u64(*budget)),
            ("horizon", Json::opt_u64(*horizon)),
        ]),
    }
}

fn arrival_from_json(j: &Json) -> Result<ArrivalSpec, SpecError> {
    match j.kind()? {
        "none" => Ok(ArrivalSpec::None),
        "batch" => Ok(ArrivalSpec::Batch {
            at: j.get("at")?.as_u64()?,
            count: j.get("count")?.as_u32()?,
        }),
        "poisson" => Ok(ArrivalSpec::Poisson {
            rate: j.get("rate")?.as_f64()?,
            horizon: j.get("horizon")?.as_opt_u64()?,
        }),
        "bursty" => Ok(ArrivalSpec::Bursty {
            period: j.get("period")?.as_u64()?,
            phase: j.get("phase")?.as_u64()?,
            size: j.get("size")?.as_u32()?,
            bursts: j.get("bursts")?.as_u64()?,
        }),
        "scripted" => {
            let mut slots = Vec::new();
            for item in j.get("slots")?.as_arr()? {
                let pair = item.as_arr()?;
                if pair.len() != 2 {
                    return Err(SpecError::new("scripted entries are [slot, count]"));
                }
                slots.push((pair[0].as_u64()?, pair[1].as_u32()?));
            }
            Ok(ArrivalSpec::Scripted { slots })
        }
        "uniform-random" => Ok(ArrivalSpec::UniformRandom {
            total: j.get("total")?.as_u64()?,
            horizon: j.get("horizon")?.as_u64()?,
        }),
        "saturated" => Ok(ArrivalSpec::Saturated {
            target: j.get("target")?.as_opt_u64()?,
            budget: j.get("budget")?.as_opt_u64()?,
            horizon: j.get("horizon")?.as_opt_u64()?,
        }),
        other => Err(SpecError::new(format!("unknown arrival kind `{other}`"))),
    }
}

fn jamming_to_json(j: &JammingSpec) -> Json {
    match j {
        JammingSpec::None => Json::obj(vec![("kind", Json::Str("none".into()))]),
        JammingSpec::Random { p } => Json::obj(vec![
            ("kind", Json::Str("random".into())),
            ("p", Json::Num(*p)),
        ]),
        JammingSpec::Periodic { period, phase } => Json::obj(vec![
            ("kind", Json::Str("periodic".into())),
            ("period", Json::u64(*period)),
            ("phase", Json::u64(*phase)),
        ]),
        JammingSpec::FrontLoaded { until } => Json::obj(vec![
            ("kind", Json::Str("front-loaded".into())),
            ("until", Json::u64(*until)),
        ]),
        JammingSpec::Reactive { burst } => Json::obj(vec![
            ("kind", Json::Str("reactive".into())),
            ("burst", Json::u64(*burst)),
        ]),
        JammingSpec::GilbertElliott {
            fraction,
            burst_len,
        } => Json::obj(vec![
            ("kind", Json::Str("gilbert-elliott".into())),
            ("fraction", Json::Num(*fraction)),
            ("burst_len", Json::Num(*burst_len)),
        ]),
        JammingSpec::Scripted { slots } => Json::obj(vec![
            ("kind", Json::Str("scripted".into())),
            (
                "slots",
                Json::Arr(slots.iter().map(|&s| Json::u64(s)).collect()),
            ),
        ]),
    }
}

fn jamming_from_json(j: &Json) -> Result<JammingSpec, SpecError> {
    match j.kind()? {
        "none" => Ok(JammingSpec::None),
        "random" => Ok(JammingSpec::Random {
            p: j.get("p")?.as_f64()?,
        }),
        "periodic" => Ok(JammingSpec::Periodic {
            period: j.get("period")?.as_u64()?,
            phase: j.get("phase")?.as_u64()?,
        }),
        "front-loaded" => Ok(JammingSpec::FrontLoaded {
            until: j.get("until")?.as_u64()?,
        }),
        "reactive" => Ok(JammingSpec::Reactive {
            burst: j.get("burst")?.as_u64()?,
        }),
        "gilbert-elliott" => Ok(JammingSpec::GilbertElliott {
            fraction: j.get("fraction")?.as_f64()?,
            burst_len: j.get("burst_len")?.as_f64()?,
        }),
        "scripted" => Ok(JammingSpec::Scripted {
            slots: j
                .get("slots")?
                .as_arr()?
                .iter()
                .map(|s| s.as_u64())
                .collect::<Result<_, _>>()?,
        }),
        other => Err(SpecError::new(format!("unknown jamming kind `{other}`"))),
    }
}

fn adversary_to_json(a: &AdversarySpec) -> Json {
    match a {
        AdversarySpec::Composite { arrival, jamming } => Json::obj(vec![
            ("kind", Json::Str("composite".into())),
            ("arrival", arrival_to_json(arrival)),
            ("jamming", jamming_to_json(jamming)),
        ]),
        AdversarySpec::Lemma41 {
            horizon,
            batch_per_slot,
            random_total,
        } => Json::obj(vec![
            ("kind", Json::Str("lemma-4.1".into())),
            ("horizon", Json::u64(*horizon)),
            ("batch_per_slot", Json::u64(u64::from(*batch_per_slot))),
            ("random_total", Json::u64(*random_total)),
        ]),
        AdversarySpec::Theorem13 { horizon, g_of_t } => Json::obj(vec![
            ("kind", Json::Str("theorem-1.3".into())),
            ("horizon", Json::u64(*horizon)),
            ("g_of_t", Json::Num(*g_of_t)),
        ]),
        AdversarySpec::Theorem42 {
            horizon,
            g_of_t,
            f_of_t,
        } => Json::obj(vec![
            ("kind", Json::Str("theorem-4.2".into())),
            ("horizon", Json::u64(*horizon)),
            ("g_of_t", Json::Num(*g_of_t)),
            ("f_of_t", Json::Num(*f_of_t)),
        ]),
    }
}

fn adversary_from_json(j: &Json) -> Result<AdversarySpec, SpecError> {
    match j.kind()? {
        "composite" => Ok(AdversarySpec::Composite {
            arrival: arrival_from_json(j.get("arrival")?)?,
            jamming: jamming_from_json(j.get("jamming")?)?,
        }),
        "lemma-4.1" => Ok(AdversarySpec::Lemma41 {
            horizon: j.get("horizon")?.as_u64()?,
            batch_per_slot: j.get("batch_per_slot")?.as_u32()?,
            random_total: j.get("random_total")?.as_u64()?,
        }),
        "theorem-1.3" => Ok(AdversarySpec::Theorem13 {
            horizon: j.get("horizon")?.as_u64()?,
            g_of_t: j.get("g_of_t")?.as_f64()?,
        }),
        "theorem-4.2" => Ok(AdversarySpec::Theorem42 {
            horizon: j.get("horizon")?.as_u64()?,
            g_of_t: j.get("g_of_t")?.as_f64()?,
            f_of_t: j.get("f_of_t")?.as_f64()?,
        }),
        other => Err(SpecError::new(format!("unknown adversary kind `{other}`"))),
    }
}

pub(crate) fn channel_to_json(c: &ChannelSpec) -> Json {
    Json::obj(vec![
        ("model", Json::Str(c.model.name().into())),
        ("listen_cost", Json::Num(c.listen_cost)),
    ])
}

pub(crate) fn channel_from_json(j: &Json) -> Result<ChannelSpec, SpecError> {
    let name = j.get("model")?.as_str()?;
    let base = ChannelSpec::by_name(name)
        .ok_or_else(|| SpecError::new(format!("unknown channel model `{name}`")))?;
    // Optional, like every constructor's default: hand-written specs may
    // give just the model.
    let listen_cost = match j.get("listen_cost") {
        Ok(v) => v.as_opt_f64()?.unwrap_or(0.0),
        Err(_) => 0.0,
    };
    Ok(base.with_listen_cost(listen_cost))
}

fn curve_to_json(c: &CurveSpec) -> Json {
    match c {
        CurveSpec::Unlimited => Json::obj(vec![("kind", Json::Str("unlimited".into()))]),
        CurveSpec::Constant(cap) => Json::obj(vec![
            ("kind", Json::Str("constant".into())),
            ("cap", Json::Num(*cap)),
        ]),
        CurveSpec::PerSlot(coef) => Json::obj(vec![
            ("kind", Json::Str("per-slot".into())),
            ("coef", Json::Num(*coef)),
        ]),
        CurveSpec::CriticalArrivals { scale } => Json::obj(vec![
            ("kind", Json::Str("critical-arrivals".into())),
            ("scale", Json::Num(*scale)),
        ]),
        CurveSpec::CriticalJams { scale } => Json::obj(vec![
            ("kind", Json::Str("critical-jams".into())),
            ("scale", Json::Num(*scale)),
        ]),
    }
}

fn curve_from_json(j: &Json) -> Result<CurveSpec, SpecError> {
    match j.kind()? {
        "unlimited" => Ok(CurveSpec::Unlimited),
        "constant" => Ok(CurveSpec::Constant(j.get("cap")?.as_f64()?)),
        "per-slot" => Ok(CurveSpec::PerSlot(j.get("coef")?.as_f64()?)),
        "critical-arrivals" => Ok(CurveSpec::CriticalArrivals {
            scale: j.get("scale")?.as_f64()?,
        }),
        "critical-jams" => Ok(CurveSpec::CriticalJams {
            scale: j.get("scale")?.as_f64()?,
        }),
        other => Err(SpecError::new(format!("unknown curve kind `{other}`"))),
    }
}

impl ScenarioSpec {
    /// Serialize to a [`Json`] tree.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            (
                "algos",
                Json::Arr(self.algos.iter().map(algo_to_json).collect()),
            ),
            ("adversary", adversary_to_json(&self.adversary)),
            (
                "budget",
                self.budget.as_ref().map_or(Json::Null, |b| {
                    Json::obj(vec![
                        ("params", params_to_json(&b.params)),
                        ("arrivals", curve_to_json(&b.arrivals)),
                        ("jams", curve_to_json(&b.jams)),
                    ])
                }),
            ),
            (
                "smooth",
                self.smooth.as_ref().map_or(Json::Null, |s| {
                    Json::obj(vec![
                        ("params", params_to_json(&s.params)),
                        ("ca", Json::Num(s.ca)),
                        ("cd", Json::Num(s.cd)),
                    ])
                }),
            ),
            (
                "horizon",
                match self.horizon {
                    HorizonSpec::UntilDrained { max_slots } => Json::obj(vec![
                        ("kind", Json::Str("until-drained".into())),
                        ("max_slots", Json::u64(max_slots)),
                    ]),
                    HorizonSpec::Fixed { slots } => Json::obj(vec![
                        ("kind", Json::Str("fixed".into())),
                        ("slots", Json::u64(slots)),
                    ]),
                },
            ),
            ("seeds", Json::u64(self.seeds)),
            ("seed_base", Json::u64(self.seed_base)),
            (
                "record",
                Json::Str(
                    match self.record {
                        RecordMode::Full => "full",
                        RecordMode::Aggregate => "aggregate",
                    }
                    .into(),
                ),
            ),
            ("history_retention", Json::opt_u64(self.history_retention)),
            ("channel", channel_to_json(&self.channel)),
            ("execution", Json::Str(self.execution.name().into())),
            (
                "checkpoint",
                self.checkpoint.map_or(Json::Null, |c| {
                    Json::obj(vec![("every", Json::u64(c.every))])
                }),
            ),
        ])
    }

    /// Serialize to compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Deserialize from a [`Json`] tree.
    pub fn from_json(j: &Json) -> Result<Self, SpecError> {
        let budget = match j.get("budget")? {
            Json::Null => None,
            b => Some(BudgetSpec {
                params: params_from_json(b.get("params")?)?,
                arrivals: curve_from_json(b.get("arrivals")?)?,
                jams: curve_from_json(b.get("jams")?)?,
            }),
        };
        let smooth = match j.get("smooth")? {
            Json::Null => None,
            s => Some(SmoothSpec {
                params: params_from_json(s.get("params")?)?,
                ca: s.get("ca")?.as_f64()?,
                cd: s.get("cd")?.as_f64()?,
            }),
        };
        let horizon = {
            let h = j.get("horizon")?;
            match h.kind()? {
                "until-drained" => HorizonSpec::UntilDrained {
                    max_slots: h.get("max_slots")?.as_u64()?,
                },
                "fixed" => HorizonSpec::Fixed {
                    slots: h.get("slots")?.as_u64()?,
                },
                other => return Err(SpecError::new(format!("unknown horizon `{other}`"))),
            }
        };
        let record = match j.get("record")?.as_str()? {
            "full" => RecordMode::Full,
            "aggregate" => RecordMode::Aggregate,
            other => return Err(SpecError::new(format!("unknown record mode `{other}`"))),
        };
        // Both counts arrive from outside (daemon submits, `--spec`
        // files); the builders clamp or assert them, so parsing refuses
        // what the builders never produce.
        let positive = |field: &str, v: u64| {
            if v == 0 {
                Err(SpecError::new(format!(
                    "`{field}` must be at least 1, got 0"
                )))
            } else {
                Ok(v)
            }
        };
        Ok(ScenarioSpec {
            name: j.get("name")?.as_str()?.to_string(),
            algos: j
                .get("algos")?
                .as_arr()?
                .iter()
                .map(algo_from_json)
                .collect::<Result<_, _>>()?,
            adversary: adversary_from_json(j.get("adversary")?)?,
            budget,
            smooth,
            horizon,
            seeds: positive("seeds", j.get("seeds")?.as_u64()?)?,
            seed_base: j.get("seed_base")?.as_u64()?,
            record,
            // Absent in documents written before the knob existed.
            history_retention: match j.get("history_retention") {
                Ok(v) => v.as_opt_u64()?,
                Err(_) => None,
            },
            // Likewise: documents predating pluggable channel models get
            // the paper's default.
            channel: match j.get("channel") {
                Ok(v) => channel_from_json(v)?,
                Err(_) => ChannelSpec::default(),
            },
            // Likewise: documents predating the execution knob run exact.
            execution: match j.get("execution") {
                Ok(v) => {
                    let name = v.as_str()?;
                    Execution::by_name(name).ok_or_else(|| {
                        SpecError::new(format!("unknown execution strategy `{name}`"))
                    })?
                }
                Err(_) => Execution::Exact,
            },
            // Likewise: documents predating checkpoints have none.
            checkpoint: match j.get("checkpoint") {
                Ok(Json::Null) | Err(_) => None,
                Ok(c) => Some(CheckpointPolicy {
                    every: positive("checkpoint.every", c.get("every")?.as_u64()?)?,
                }),
            },
        })
    }

    /// Deserialize from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trip() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd".into())),
            ("n".into(), Json::Num(0.25)),
            ("i".into(), Json::Num(1048576.0)),
            ("b".into(), Json::Bool(true)),
            ("z".into(), Json::Null),
            (
                "arr".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn parse_accepts_whitespace() {
        let text = " { \"a\" : [ 1 , 2 ] , \"b\" : null } ";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn float_render_round_trips() {
        for x in [0.1, 1.0 / 3.0, 1e-9, 123456789.125, 0.0] {
            let text = Json::Num(x).render();
            match Json::parse(&text).unwrap() {
                Json::Num(y) => assert_eq!(x, y, "text {text}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn channel_spec_round_trips_and_rejects_unknown_models() {
        for model in contention_sim::ChannelModel::all() {
            let spec = ChannelSpec::by_name(model.name())
                .unwrap()
                .with_listen_cost(0.125);
            let parsed = channel_from_json(&channel_to_json(&spec)).unwrap();
            assert_eq!(parsed, spec);
        }
        let bad = Json::obj(vec![
            ("model", Json::Str("duplex".into())),
            ("listen_cost", Json::Num(0.0)),
        ]);
        assert!(channel_from_json(&bad).is_err());
        // Hand-written specs may give just the model: listen_cost is
        // optional and defaults to free listening.
        let bare = Json::obj(vec![("model", Json::Str("cd".into()))]);
        assert_eq!(
            channel_from_json(&bare).unwrap(),
            ChannelSpec::collision_detection()
        );
    }

    #[test]
    fn pre_channel_documents_parse_with_the_default_model() {
        // A spec serialized before the channel field existed must load as
        // the paper's model.
        let spec = ScenarioSpec::batch(4, 0.0);
        let mut json = spec.to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "channel");
        }
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed.channel, ChannelSpec::no_collision_detection());
        assert_eq!(parsed, spec);
    }

    #[test]
    fn zero_seeds_are_rejected_by_name() {
        let text = ScenarioSpec::batch(4, 0.0).seeds(2).to_json_string();
        assert!(ScenarioSpec::from_json_str(&text).is_ok());
        let zero = text.replace("\"seeds\":2", "\"seeds\":0");
        let err = ScenarioSpec::from_json_str(&zero).unwrap_err();
        assert!(err.to_string().contains("`seeds`"), "{err}");
    }

    #[test]
    fn zero_checkpoint_cadence_is_rejected_by_name() {
        let text = ScenarioSpec::batch(4, 0.0)
            .checkpoint_every(64)
            .to_json_string();
        assert!(ScenarioSpec::from_json_str(&text).is_ok());
        let zero = text.replace("\"every\":64", "\"every\":0");
        let err = ScenarioSpec::from_json_str(&zero).unwrap_err();
        assert!(err.to_string().contains("`checkpoint.every`"), "{err}");
    }

    #[test]
    fn non_finite_renders_as_null() {
        // Regression: `{x:?}` used to emit `NaN` / `inf` — invalid JSON
        // that our own parser rejected, breaking spec round-trips.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Num(x).render();
            assert_eq!(text, "null", "non-finite {x} must render as null");
            assert_eq!(Json::parse(&text).unwrap(), Json::Null);
        }
        // Embedded in a document the output stays parseable.
        let doc = Json::Obj(vec![
            ("p".into(), Json::Num(f64::NAN)),
            ("q".into(), Json::Num(2.5)),
        ]);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("p").unwrap(), &Json::Null);
        assert_eq!(parsed.get("q").unwrap(), &Json::Num(2.5));
    }
}
