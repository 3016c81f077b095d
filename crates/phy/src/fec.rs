//! Forward error correction: Hamming(7,4) and a K=3 convolutional code.
//!
//! "IAC works with various modulations and FEC codes. This is because IAC
//! subtracts interference before passing a signal to the rest of the PHY,
//! which can use a standard 802.11 MIMO modulator/demodulator and FEC codes"
//! (§1). These two codes let the experiments demonstrate that transparency:
//! the IAC chain neither knows nor cares whether the bits it aligns,
//! projects and cancels were coded.

/// Hamming(7,4): encodes 4 data bits into 7, corrects any single bit error.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hamming74;

impl Hamming74 {
    /// Encode a nibble (d0..d3) into 7 bits (p1 p2 d0 p3 d1 d2 d3), the
    /// classic positional layout where parity bit `p_k` covers positions
    /// with bit `k` set.
    pub(crate) fn encode_nibble(d: [bool; 4]) -> [bool; 7] {
        let (d0, d1, d2, d3) = (d[0], d[1], d[2], d[3]);
        let p1 = d0 ^ d1 ^ d3;
        let p2 = d0 ^ d2 ^ d3;
        let p3 = d1 ^ d2 ^ d3;
        [p1, p2, d0, p3, d1, d2, d3]
    }

    /// Decode 7 bits, correcting up to one flipped bit. Returns the nibble.
    pub(crate) fn decode_block(mut c: [bool; 7]) -> [bool; 4] {
        let s1 = c[0] ^ c[2] ^ c[4] ^ c[6];
        let s2 = c[1] ^ c[2] ^ c[5] ^ c[6];
        let s3 = c[3] ^ c[4] ^ c[5] ^ c[6];
        let syndrome = (s1 as usize) | ((s2 as usize) << 1) | ((s3 as usize) << 2);
        if syndrome != 0 {
            c[syndrome - 1] = !c[syndrome - 1];
        }
        [c[2], c[4], c[5], c[6]]
    }

    /// Encode a whole bit stream (pads the tail nibble with zeros).
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(bits.len().div_ceil(4) * 7);
        for chunk in bits.chunks(4) {
            let mut d = [false; 4];
            d[..chunk.len()].copy_from_slice(chunk);
            out.extend_from_slice(&Self::encode_nibble(d));
        }
        out
    }

    /// Decode a whole stream (length must be a multiple of 7).
    pub fn decode(&self, bits: &[bool]) -> Vec<bool> {
        assert_eq!(bits.len() % 7, 0, "Hamming(7,4) stream length not ×7");
        let mut out = Vec::with_capacity(bits.len() / 7 * 4);
        for chunk in bits.chunks(7) {
            let mut c = [false; 7];
            c.copy_from_slice(chunk);
            out.extend_from_slice(&Self::decode_block(c));
        }
        out
    }
}

/// Rate-1/2 convolutional code, constraint length 3, generators (7, 5)
/// octal — the textbook code — with hard-decision Viterbi decoding.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvK3;

impl ConvK3 {
    const STATES: usize = 4;

    /// Output bit pair for (state, input).
    fn output(state: usize, input: bool) -> (bool, bool) {
        // State bits: bit0 = previous input u[t−1], bit1 = u[t−2].
        // G1 = 1+D+D² (octal 7), G2 = 1+D² (octal 5).
        let u_minus_1 = state & 1 == 1;
        let u_minus_2 = (state >> 1) & 1 == 1;
        let g1 = input ^ u_minus_1 ^ u_minus_2;
        let g2 = input ^ u_minus_2;
        (g1, g2)
    }

    fn next_state(state: usize, input: bool) -> usize {
        ((state << 1) | input as usize) & (Self::STATES - 1)
    }

    /// Encode with two flush bits (returns 2·(n+2) bits).
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(2 * (bits.len() + 2));
        let mut state = 0usize;
        for &b in bits.iter().chain([false, false].iter()) {
            let (g1, g2) = Self::output(state, b);
            out.push(g1);
            out.push(g2);
            state = Self::next_state(state, b);
        }
        out
    }

    /// Hard-decision Viterbi decode; input length must be even and include
    /// the flush bits. Returns the original message (flush bits stripped).
    pub fn decode(&self, coded: &[bool]) -> Vec<bool> {
        assert_eq!(coded.len() % 2, 0, "coded stream length must be even");
        let steps = coded.len() / 2;
        assert!(steps >= 2, "stream too short for flush bits");
        const INF: u32 = u32::MAX / 2;
        let mut metric = [INF; Self::STATES];
        metric[0] = 0;
        // survivors[t][s] = (previous state, input bit)
        let mut survivors: Vec<[(u8, bool); Self::STATES]> = Vec::with_capacity(steps);
        for t in 0..steps {
            let r1 = coded[2 * t];
            let r2 = coded[2 * t + 1];
            let mut next = [INF; Self::STATES];
            let mut surv = [(0u8, false); Self::STATES];
            for (s, &m) in metric.iter().enumerate() {
                if m >= INF {
                    continue;
                }
                for input in [false, true] {
                    let (g1, g2) = Self::output(s, input);
                    let cost = (g1 != r1) as u32 + (g2 != r2) as u32;
                    let ns = Self::next_state(s, input);
                    let cand = m + cost;
                    if cand < next[ns] {
                        next[ns] = cand;
                        surv[ns] = (s as u8, input);
                    }
                }
            }
            metric = next;
            survivors.push(surv);
        }
        // Trace back from state 0 (the flush bits force it).
        let mut state = 0usize;
        let mut bits_rev = Vec::with_capacity(steps);
        for t in (0..steps).rev() {
            let (prev, input) = survivors[t][state];
            bits_rev.push(input);
            state = prev as usize;
        }
        bits_rev.reverse();
        bits_rev.truncate(steps - 2); // strip flush bits
        bits_rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::Rng64;

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| rng.chance(0.5)).collect()
    }

    #[test]
    fn hamming_roundtrip_clean() {
        let bits = random_bits(400, 1);
        let coded = Hamming74.encode(&bits);
        assert_eq!(coded.len(), 700);
        let decoded = Hamming74.decode(&coded);
        assert_eq!(&decoded[..400], &bits[..]);
    }

    #[test]
    fn hamming_corrects_any_single_error_per_block() {
        let data = [true, false, true, true];
        let clean = Hamming74::encode_nibble(data);
        for flip in 0..7 {
            let mut corrupted = clean;
            corrupted[flip] = !corrupted[flip];
            assert_eq!(
                Hamming74::decode_block(corrupted),
                data,
                "failed for flipped bit {flip}"
            );
        }
    }

    #[test]
    fn hamming_double_error_is_beyond_capability() {
        let data = [false, true, false, true];
        let mut c = Hamming74::encode_nibble(data);
        c[0] = !c[0];
        c[5] = !c[5];
        // Two errors exceed the code's correction radius; it must NOT
        // silently return the original (it will mis-correct) — documents
        // the code's limits rather than pretending otherwise.
        assert_ne!(Hamming74::decode_block(c), data);
    }

    #[test]
    fn conv_roundtrip_clean() {
        let bits = random_bits(500, 2);
        let coded = ConvK3.encode(&bits);
        assert_eq!(coded.len(), 2 * (500 + 2));
        let decoded = ConvK3.decode(&coded);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn conv_corrects_scattered_errors() {
        let bits = random_bits(300, 3);
        let mut coded = ConvK3.encode(&bits);
        // Flip well-separated bits (free distance 5 ⇒ isolated double
        // errors within a constraint span decode correctly).
        for k in [10usize, 100, 200, 350, 500] {
            coded[k] = !coded[k];
        }
        let decoded = ConvK3.decode(&coded);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn conv_beats_uncoded_at_moderate_ber() {
        // Flip each coded bit with 3%: Viterbi should recover with far fewer
        // residual errors than 3% uncoded.
        let mut rng = Rng64::new(4);
        let bits = random_bits(4000, 5);
        let mut coded = ConvK3.encode(&bits);
        let mut channel_flips = 0;
        for b in coded.iter_mut() {
            if rng.chance(0.03) {
                *b = !*b;
                channel_flips += 1;
            }
        }
        let decoded = ConvK3.decode(&coded);
        let residual = bits.iter().zip(&decoded).filter(|(a, b)| a != b).count();
        assert!(channel_flips > 100, "test needs actual corruption");
        // K=3 has free distance 5: at 3% coded BER expect an order of
        // magnitude fewer residual errors than channel flips.
        assert!(
            residual * 10 < channel_flips,
            "Viterbi left {residual} errors for {channel_flips} flips"
        );
    }

    #[test]
    fn conv_flush_forces_zero_state() {
        // Encoding appends 2 zero bits: the final state must be 0, which the
        // decoder exploits. An all-ones message checks the path.
        let bits = vec![true; 64];
        let decoded = ConvK3.decode(&ConvK3.encode(&bits));
        assert_eq!(decoded, bits);
    }

    #[test]
    #[should_panic(expected = "not ×7")]
    fn hamming_bad_length_rejected() {
        let _ = Hamming74.decode(&[false; 10]);
    }

    #[test]
    fn hamming_pads_tail() {
        let coded = Hamming74.encode(&[true, true]); // 2 bits → 1 block
        assert_eq!(coded.len(), 7);
        let decoded = Hamming74.decode(&coded);
        assert_eq!(&decoded[..2], &[true, true]);
        assert_eq!(&decoded[2..], &[false, false]);
    }
}
