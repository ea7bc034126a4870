//! The device-identity file: the known sensitive values the payload check
//! is armed with.
//!
//! ```text
//! LEAKDEV/1
//! imei 355195000000017
//! imsi 440101234567890
//! android_id f3a9c1d200b14e77
//! sim_serial 8981012345678901234
//! carrier NTT DOCOMO
//! ```

use leaksig_netsim::{Carrier, DeviceProfile};

const MAGIC: &str = "LEAKDEV/1";

/// Serialize a device profile.
pub fn encode(device: &DeviceProfile) -> String {
    format!(
        "{MAGIC}\nimei {}\nimsi {}\nandroid_id {}\nsim_serial {}\ncarrier {}\n",
        device.imei,
        device.imsi,
        device.android_id,
        device.sim_serial,
        device.carrier.name()
    )
}

/// Parse a device file.
pub fn decode(text: &str) -> Result<DeviceProfile, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MAGIC) {
        return Err(format!("missing {MAGIC} header"));
    }
    let mut imei = None;
    let mut imsi = None;
    let mut android_id = None;
    let mut sim_serial = None;
    let mut carrier = None;
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed line: {line:?}"))?;
        match key {
            "imei" => imei = Some(value.to_string()),
            "imsi" => imsi = Some(value.to_string()),
            "android_id" => android_id = Some(value.to_string()),
            "sim_serial" => sim_serial = Some(value.to_string()),
            "carrier" => {
                carrier = Some(match value {
                    "NTT DOCOMO" => Carrier::NttDocomo,
                    "KDDI" => Carrier::Kddi,
                    "SoftBank" => Carrier::SoftBank,
                    other => return Err(format!("unknown carrier {other:?}")),
                })
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    let need = |v: Option<String>, k: &str| v.ok_or_else(|| format!("missing key {k:?}"));
    Ok(DeviceProfile {
        imei: need(imei, "imei")?,
        imsi: need(imsi, "imsi")?,
        android_id: need(android_id, "android_id")?,
        sim_serial: need(sim_serial, "sim_serial")?,
        carrier: carrier.ok_or_else(|| "missing key \"carrier\"".to_string())?,
    })
}

/// File wrappers.
pub fn write_file(path: &str, device: &DeviceProfile) -> Result<(), String> {
    std::fs::write(path, encode(device)).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Read a device file from disk.
pub fn read_file(path: &str) -> Result<DeviceProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    decode(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip() {
        let d = DeviceProfile::generate(&mut StdRng::seed_from_u64(8));
        let text = encode(&d);
        let back = decode(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn rejects_malformed() {
        assert!(decode("").is_err());
        assert!(decode("LEAKDEV/1\nimei\n").is_err());
        assert!(decode("LEAKDEV/1\nwat 5\n").is_err());
        assert!(decode("LEAKDEV/1\nimei 1\n").is_err(), "incomplete");
        assert!(decode("LEAKDEV/1\ncarrier Marsnet\n").is_err());
    }
}
