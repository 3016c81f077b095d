//! Frame airtime accounting.
//!
//! The event-driven MAC in `iac-des` prices every protocol step in *time*.
//! This module converts frame sizes to on-air durations with the usual
//! 802.11a/g decomposition: a fixed PLCP preamble+header, the payload at the
//! selected rate, and a SIFS before whatever follows. Control frames
//! (beacons, polls, grants, CF-End, ACKs) go out at a conservative base rate
//! so the farthest client can hear them; data frames use the negotiated
//! data rate.
//!
//! Concurrency note: an IAC transmission group is *concurrent in time* — 3
//! aligned packets cost one payload airtime, which is exactly where the
//! throughput gain comes from.

/// On-air timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Airtime {
    /// Data-frame payload rate, Mbit/s (2-antenna MIMO-era default).
    pub data_rate_mbps: f64,
    /// Control/broadcast rate, Mbit/s (base rate every client decodes).
    pub ctrl_rate_mbps: f64,
    /// PLCP preamble + header, µs, paid once per frame.
    pub plcp_us: f64,
    /// Short interframe space, µs, paid after every frame.
    pub sifs_us: f64,
    /// Contention-period slot length, µs.
    pub slot_us: f64,
}

impl Default for Airtime {
    fn default() -> Self {
        Self {
            data_rate_mbps: 26.0,
            ctrl_rate_mbps: 6.0,
            plcp_us: 20.0,
            sifs_us: 16.0,
            slot_us: 9.0,
        }
    }
}

impl Airtime {
    /// Airtime of a data frame of `bytes` payload, including PLCP and the
    /// trailing SIFS.
    pub fn data_us(&self, bytes: usize) -> f64 {
        self.plcp_us + bytes as f64 * 8.0 / self.data_rate_mbps + self.sifs_us
    }

    /// Airtime of a control frame of `bytes`, including PLCP and SIFS.
    pub fn ctrl_us(&self, bytes: usize) -> f64 {
        self.plcp_us + bytes as f64 * 8.0 / self.ctrl_rate_mbps + self.sifs_us
    }

    /// Airtime of one 802.11 ACK (14 bytes at the control rate).
    pub fn ack_us(&self) -> f64 {
        self.ctrl_us(14)
    }

    /// Duration of a contention period of `slots` slots.
    pub fn cp_us(&self, slots: u16) -> f64 {
        slots as f64 * self.slot_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_magnitude_is_plausible() {
        // 1440 B at 26 Mbit/s ≈ 443 µs payload + 36 µs overheads.
        let a = Airtime::default();
        let t = a.data_us(1440);
        assert!(t > 400.0 && t < 600.0, "1440B data airtime {t}us off-band");
    }

    #[test]
    fn control_frames_cost_more_per_byte() {
        let a = Airtime::default();
        let per_data_byte = (a.data_us(1000) - a.data_us(0)) / 1000.0;
        let per_ctrl_byte = (a.ctrl_us(1000) - a.ctrl_us(0)) / 1000.0;
        assert!(per_ctrl_byte > per_data_byte);
    }

    #[test]
    fn airtime_is_monotone_in_size() {
        let a = Airtime::default();
        assert!(a.data_us(1500) > a.data_us(100));
        assert!(a.ctrl_us(60) > a.ctrl_us(10));
        assert!(a.ack_us() > 0.0);
    }

    #[test]
    fn cp_scales_with_slots() {
        let a = Airtime::default();
        assert_eq!(a.cp_us(10), 90.0);
        assert_eq!(a.cp_us(0), 0.0);
    }
}
