//! Scenario-file knobs for TSUE and its [`SchemeRegistry`] registration.
//!
//! A scenario selects TSUE with `"scheme": {"name": "tsue"}` and may
//! attach a `knobs` object overriding any subset of [`TsueConfig`] on
//! top of the device-class default — including the Fig. 7 ablation
//! switches O1–O5, either individually (`datalog_locality`, …) or via
//! the cumulative `breakdown_level` preset (0 = Baseline … 5 = +O5).

use crate::{Tsue, TsueConfig};
use serde::{DeError, Deserialize, Serialize, Value};
use tsue_ecfs::{DeviceKind, MakeScheme, SchemeError, SchemeRegistry};

impl TsueConfig {
    /// Resolves a scenario `knobs` value into a full config: the device
    /// default ([`TsueConfig::ssd_default`] / [`TsueConfig::hdd_default`])
    /// with the object's fields laid over it.
    ///
    /// `breakdown_level` (0–5) is not a field but a preset: it replaces
    /// the base with the Fig. 7 cumulative ablation config before the
    /// fields override it, so `{"breakdown_level": 3, "pools": 2}` means
    /// "+O1..O3, but 2 pools".
    ///
    /// # Errors
    /// Unknown knob keys, ill-typed values, out-of-range presets and zero
    /// sizes or counts are rejected with the offending key named.
    pub fn from_knobs(device: DeviceKind, knobs: &Value) -> Result<Self, SchemeError> {
        let mut base = match device {
            DeviceKind::Ssd => TsueConfig::ssd_default(),
            DeviceKind::Hdd => TsueConfig::hdd_default(),
        };
        let bad = |e: DeError| SchemeError::msg(e.to_string());
        let mut fields = match knobs {
            Value::Null => return Ok(base),
            Value::Object(fields) => fields.clone(),
            other => return Err(bad(DeError::mismatch("knobs", "object", other))),
        };
        if let Some(at) = fields.iter().position(|(key, _)| key == "breakdown_level") {
            let level = usize::from_value(&fields.remove(at).1)
                .map_err(|e| bad(e.in_field("knobs", "breakdown_level")))?;
            if level > 5 {
                let range = format!("breakdown_level must be 0..=5, got {level}");
                return Err(SchemeError::msg(range));
            }
            base = TsueConfig::breakdown(level);
        }
        // A struct field deserializes from the first entry of its name, so
        // the scenario's entries go in front of the base's; a key that is
        // not a field is rejected by name.
        if let Value::Object(defaults) = base.to_value() {
            fields.extend(defaults);
        }
        let cfg = TsueConfig::from_value(&Value::Object(fields)).map_err(bad)?;
        let counts = [
            ("unit_size", cfg.unit_size),
            ("max_units", cfg.max_units as u64),
            ("pools", cfg.pools as u64),
            ("data_replicas", cfg.data_replicas as u64),
            ("recycle_threads", cfg.recycle_threads as u64),
        ];
        match counts.iter().find(|(_, n)| *n == 0) {
            Some((key, _)) => Err(SchemeError::msg(format!("{key} must be non-zero"))),
            None => Ok(cfg),
        }
    }
}

/// Registers TSUE with a [`SchemeRegistry`] under the name `tsue`.
pub fn register_tsue(reg: &mut SchemeRegistry) {
    reg.register(
        "tsue",
        "TSUE",
        "two-stage update: replicated DataLog front end, real-time recycle \
         through Delta/ParityLog pools (knobs: TsueConfig fields + breakdown_level)",
        |params| -> Result<MakeScheme, SchemeError> {
            let cfg = TsueConfig::from_knobs(params.device, &params.knobs)?;
            Ok(Box::new(move |_| Box::new(Tsue::new(cfg.clone()))))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_knobs_give_device_defaults() {
        let ssd = TsueConfig::from_knobs(DeviceKind::Ssd, &Value::Null).unwrap();
        assert_eq!(ssd, TsueConfig::ssd_default());
        let hdd = TsueConfig::from_knobs(DeviceKind::Hdd, &Value::Null).unwrap();
        assert_eq!(hdd, TsueConfig::hdd_default());
    }

    #[test]
    fn full_config_round_trips_through_knobs() {
        let mut cfg = TsueConfig::ssd_default();
        cfg.unit_size = 8 << 20;
        cfg.pools = 2;
        cfg.compress_deltas = true;
        cfg.use_delta_log = false;
        let knobs = serde::Serialize::to_value(&cfg);
        let back = TsueConfig::from_knobs(DeviceKind::Hdd, &knobs).unwrap();
        assert_eq!(back, cfg, "serialized config must override every field");
    }

    #[test]
    fn breakdown_preset_then_field_overrides() {
        let knobs = serde_json::value_from_str(r#"{"breakdown_level": 3, "pools": 2}"#).unwrap();
        let cfg = TsueConfig::from_knobs(DeviceKind::Ssd, &knobs).unwrap();
        let mut expect = TsueConfig::breakdown(3);
        expect.pools = 2;
        assert_eq!(cfg, expect);
    }

    #[test]
    fn unknown_and_ill_typed_knobs_are_rejected() {
        let typo = serde_json::value_from_str(r#"{"max_unit": 4}"#).unwrap();
        let err = TsueConfig::from_knobs(DeviceKind::Ssd, &typo).expect_err("typo must fail");
        assert!(err.to_string().contains("max_unit"), "{err}");

        let bad = serde_json::value_from_str(r#"{"pools": "four"}"#).unwrap();
        assert!(TsueConfig::from_knobs(DeviceKind::Ssd, &bad).is_err());

        let oob = serde_json::value_from_str(r#"{"breakdown_level": 9}"#).unwrap();
        assert!(TsueConfig::from_knobs(DeviceKind::Ssd, &oob).is_err());

        let zero = serde_json::value_from_str(r#"{"max_units": 0}"#).unwrap();
        assert!(TsueConfig::from_knobs(DeviceKind::Ssd, &zero).is_err());
    }

    #[test]
    fn zero_recycle_threads_is_rejected_by_name() {
        let zero = serde_json::value_from_str(r#"{"recycle_threads": 0}"#).unwrap();
        let err = TsueConfig::from_knobs(DeviceKind::Ssd, &zero).expect_err("zero must fail");
        assert!(err.to_string().contains("recycle_threads"), "{err}");
    }
}
