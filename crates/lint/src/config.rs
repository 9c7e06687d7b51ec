//! `lint.toml` — checked-in workspace lint configuration.
//!
//! The parser covers the subset of TOML the config actually uses (the
//! lint is dependency-free by design): top-level `key = value`,
//! `[section]` / `[section.sub]` tables, `[[allow]]` array-of-tables,
//! and string / integer / boolean / string-array values. Anything else
//! is a hard error — a config the parser half-understands is worse than
//! one it rejects.

use std::collections::BTreeMap;

/// One crate-scoped exemption from `lint.toml`'s `[[allow]]` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry silences (e.g. `determinism-time`).
    pub rule: String,
    /// Workspace-relative path prefix the entry applies to.
    pub path: String,
    /// Written justification — required, the whole point of the file.
    pub reason: String,
}

/// Parsed lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hard cap on total exemptions (pragmas + allowlist entries).
    pub max_exemptions: usize,
    /// Workspace-relative prefixes of the data-plane crates: the crates
    /// whose determinism/panic/cast discipline the lint enforces.
    pub data_plane: Vec<String>,
    /// When true, `usize`/`u64`/`i64` cast targets are treated as
    /// lossless (the workspace documents a 64-bit-host assumption) and
    /// only narrower targets are audited.
    pub assume_64bit: bool,
    /// Crate-scoped exemptions.
    pub allow: Vec<AllowEntry>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_exemptions: 15,
            data_plane: Vec::new(),
            assume_64bit: true,
            allow: Vec::new(),
        }
    }
}

/// A parse failure, with the offending 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in `lint.toml`.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrList(Vec<String>),
}

fn parse_value(raw: &str, line: u32) -> Result<Value, ConfigError> {
    let raw = raw.trim();
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = raw.strip_prefix('"') {
        let body = body.strip_suffix('"').ok_or_else(|| ConfigError {
            line,
            msg: format!("unterminated string: {raw}"),
        })?;
        if body.contains('"') {
            return Err(ConfigError {
                line,
                msg: "escapes/embedded quotes are not supported".into(),
            });
        }
        return Ok(Value::Str(body.to_string()));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let body = body.strip_suffix(']').ok_or_else(|| ConfigError {
            line,
            msg: "arrays must open and close on one line".into(),
        })?;
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ConfigError {
                        line,
                        msg: "only string arrays are supported".into(),
                    })
                }
            }
        }
        return Ok(Value::StrList(items));
    }
    raw.parse::<i64>().map(Value::Int).map_err(|_| ConfigError {
        line,
        msg: format!("cannot parse value: {raw}"),
    })
}

/// Parses `lint.toml` text into a [`Config`].
pub fn parse(src: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    // (section path, key) -> (value, line); allow entries accumulate.
    let mut section = String::new();
    let mut current_allow: Option<BTreeMap<String, (Value, u32)>> = None;

    let flush_allow = |pending: &mut Option<BTreeMap<String, (Value, u32)>>,
                       out: &mut Vec<AllowEntry>|
     -> Result<(), ConfigError> {
        if let Some(map) = pending.take() {
            let line = map.values().map(|&(_, l)| l).min().unwrap_or(0);
            let get = |k: &str| -> Result<String, ConfigError> {
                match map.get(k) {
                    Some((Value::Str(s), _)) if !s.trim().is_empty() => Ok(s.clone()),
                    Some((_, l)) => Err(ConfigError {
                        line: *l,
                        msg: format!("[[allow]] `{k}` must be a non-empty string"),
                    }),
                    None => Err(ConfigError {
                        line,
                        msg: format!(
                            "[[allow]] entry is missing `{k}` (rule/path/reason are all required)"
                        ),
                    }),
                }
            };
            out.push(AllowEntry {
                rule: get("rule")?,
                path: get("path")?,
                reason: get("reason")?,
            });
        }
        Ok(())
    };

    for (idx, raw_line) in src.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = match raw_line.find('#') {
            // A `#` inside a quoted value stays; only strip when it is
            // outside quotes (count quotes before it).
            Some(pos) if raw_line[..pos].matches('"').count() % 2 == 0 => &raw_line[..pos],
            _ => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest.strip_suffix("]]").ok_or_else(|| ConfigError {
                line: lineno,
                msg: "malformed [[table]] header".into(),
            })?;
            if name != "allow" {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!("unknown array-of-tables [[{name}]] (only [[allow]] exists)"),
                });
            }
            flush_allow(&mut current_allow, &mut cfg.allow)?;
            current_allow = Some(BTreeMap::new());
            section = "allow".into();
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest.strip_suffix(']').ok_or_else(|| ConfigError {
                line: lineno,
                msg: "malformed [section] header".into(),
            })?;
            flush_allow(&mut current_allow, &mut cfg.allow)?;
            section = name.trim().to_string();
            continue;
        }
        let (key, val) = line.split_once('=').ok_or_else(|| ConfigError {
            line: lineno,
            msg: format!("expected `key = value`, got: {line}"),
        })?;
        let key = key.trim();
        let val = parse_value(val, lineno)?;
        if let Some(map) = current_allow.as_mut() {
            map.insert(key.to_string(), (val, lineno));
            continue;
        }
        match (section.as_str(), key) {
            ("", "schema") => {
                if val != Value::Int(1) {
                    return Err(ConfigError {
                        line: lineno,
                        msg: "unsupported lint.toml schema (expected 1)".into(),
                    });
                }
            }
            ("", "max_exemptions") => match val {
                Value::Int(n) if n >= 0 => cfg.max_exemptions = n as usize,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: "max_exemptions must be a non-negative integer".into(),
                    })
                }
            },
            ("scope", "data_plane") => match val {
                Value::StrList(v) => cfg.data_plane = v,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: "scope.data_plane must be an array of strings".into(),
                    })
                }
            },
            ("rules.cast", "assume_64bit") => match val {
                Value::Bool(b) => cfg.assume_64bit = b,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: "rules.cast.assume_64bit must be a boolean".into(),
                    })
                }
            },
            (sec, k) => {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!("unknown configuration key `{k}` in section `[{sec}]`"),
                });
            }
        }
    }
    flush_allow(&mut current_allow, &mut cfg.allow)?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
schema = 1
max_exemptions = 9   # budget

[scope]
data_plane = ["crates/ecfs", "crates/core"]

[rules.cast]
assume_64bit = true

[[allow]]
rule = "determinism-time"
path = "crates/core/src/live.rs"
reason = "wall-clock by design"
"#;

    #[test]
    fn parses_sample() {
        let cfg = parse(SAMPLE).unwrap();
        assert_eq!(cfg.max_exemptions, 9);
        assert_eq!(cfg.data_plane, vec!["crates/ecfs", "crates/core"]);
        assert!(cfg.assume_64bit);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "determinism-time");
        assert_eq!(cfg.allow[0].reason, "wall-clock by design");
    }

    #[test]
    fn rejects_reasonless_allow() {
        let bad = "[[allow]]\nrule = \"x\"\npath = \"y\"\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(parse("typo_key = 3\n").is_err());
        assert!(parse("[rules.cast]\nassume_64bit = \"yes\"\n").is_err());
    }
}
