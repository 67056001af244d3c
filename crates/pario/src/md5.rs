//! RFC 1321 MD5, implemented from scratch with an incremental API.
//!
//! AWP-ODC tracks simulation data integrity with MD5: "we generate MD5
//! checksums in parallel at each processor for each mesh sub-array. The
//! parallelized MD5 approach substantially decreases the time needed to
//! generate the checksums for several terabytes of data" (§III.E). The
//! workflow also re-verifies them after transfers (§III.I). MD5 is used
//! here purely as a fast integrity fingerprint, as in the paper — not for
//! security.

/// `K[i] = floor(|sin(i+1)| · 2³²)`, the RFC 1321 sine table (the tests
/// recompute it from the formula).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 hasher.
///
/// ```
/// use awp_pario::Md5;
/// assert_eq!(Md5::digest_hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes.
    len: u64,
    /// Partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    pub fn new() -> Self {
        Self {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.process_block(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.process_block(block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Feed a slice of f32 values (mesh sub-arrays) as little-endian bytes.
    pub fn update_f32(&mut self, data: &[f32]) {
        // Stream in chunks to avoid a full byte copy of multi-GB arrays.
        let mut block = [0u8; 4096];
        for chunk in data.chunks(1024) {
            let bytes = &mut block[..chunk.len() * 4];
            for (i, v) in chunk.iter().enumerate() {
                bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.update(bytes);
        }
    }

    /// One compression: the 64 RFC 1321 steps written out in straight
    /// line, each with its message word, rotation and [`K`] entry fixed.
    fn process_block(&mut self, block: &[u8; 64]) {
        let m: [u32; 16] = std::array::from_fn(|i| {
            u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap())
        });
        let [mut a, mut b, mut c, mut d] = self.state;
        // a ← b + ((a + fun(b, c, d) + x + k) <<< s)
        macro_rules! step {
            (@ $fun:expr, $a:ident, $b:ident, $x:expr, $s:literal, $k:expr) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add($fun).wrapping_add($x).wrapping_add($k).rotate_left($s),
                )
            };
            (F, $a:ident, $b:ident, $c:ident, $d:ident, $x:expr, $s:literal, $k:expr) => {
                step!(@ ($b & $c) | (!$b & $d), $a, $b, $x, $s, $k)
            };
            (G, $a:ident, $b:ident, $c:ident, $d:ident, $x:expr, $s:literal, $k:expr) => {
                step!(@ ($d & $b) | (!$d & $c), $a, $b, $x, $s, $k)
            };
            (H, $a:ident, $b:ident, $c:ident, $d:ident, $x:expr, $s:literal, $k:expr) => {
                step!(@ $b ^ $c ^ $d, $a, $b, $x, $s, $k)
            };
            (I, $a:ident, $b:ident, $c:ident, $d:ident, $x:expr, $s:literal, $k:expr) => {
                step!(@ $c ^ ($b | !$d), $a, $b, $x, $s, $k)
            };
        }
        step!(F, a, b, c, d, m[0], 7, K[0]);
        step!(F, d, a, b, c, m[1], 12, K[1]);
        step!(F, c, d, a, b, m[2], 17, K[2]);
        step!(F, b, c, d, a, m[3], 22, K[3]);
        step!(F, a, b, c, d, m[4], 7, K[4]);
        step!(F, d, a, b, c, m[5], 12, K[5]);
        step!(F, c, d, a, b, m[6], 17, K[6]);
        step!(F, b, c, d, a, m[7], 22, K[7]);
        step!(F, a, b, c, d, m[8], 7, K[8]);
        step!(F, d, a, b, c, m[9], 12, K[9]);
        step!(F, c, d, a, b, m[10], 17, K[10]);
        step!(F, b, c, d, a, m[11], 22, K[11]);
        step!(F, a, b, c, d, m[12], 7, K[12]);
        step!(F, d, a, b, c, m[13], 12, K[13]);
        step!(F, c, d, a, b, m[14], 17, K[14]);
        step!(F, b, c, d, a, m[15], 22, K[15]);

        step!(G, a, b, c, d, m[1], 5, K[16]);
        step!(G, d, a, b, c, m[6], 9, K[17]);
        step!(G, c, d, a, b, m[11], 14, K[18]);
        step!(G, b, c, d, a, m[0], 20, K[19]);
        step!(G, a, b, c, d, m[5], 5, K[20]);
        step!(G, d, a, b, c, m[10], 9, K[21]);
        step!(G, c, d, a, b, m[15], 14, K[22]);
        step!(G, b, c, d, a, m[4], 20, K[23]);
        step!(G, a, b, c, d, m[9], 5, K[24]);
        step!(G, d, a, b, c, m[14], 9, K[25]);
        step!(G, c, d, a, b, m[3], 14, K[26]);
        step!(G, b, c, d, a, m[8], 20, K[27]);
        step!(G, a, b, c, d, m[13], 5, K[28]);
        step!(G, d, a, b, c, m[2], 9, K[29]);
        step!(G, c, d, a, b, m[7], 14, K[30]);
        step!(G, b, c, d, a, m[12], 20, K[31]);

        step!(H, a, b, c, d, m[5], 4, K[32]);
        step!(H, d, a, b, c, m[8], 11, K[33]);
        step!(H, c, d, a, b, m[11], 16, K[34]);
        step!(H, b, c, d, a, m[14], 23, K[35]);
        step!(H, a, b, c, d, m[1], 4, K[36]);
        step!(H, d, a, b, c, m[4], 11, K[37]);
        step!(H, c, d, a, b, m[7], 16, K[38]);
        step!(H, b, c, d, a, m[10], 23, K[39]);
        step!(H, a, b, c, d, m[13], 4, K[40]);
        step!(H, d, a, b, c, m[0], 11, K[41]);
        step!(H, c, d, a, b, m[3], 16, K[42]);
        step!(H, b, c, d, a, m[6], 23, K[43]);
        step!(H, a, b, c, d, m[9], 4, K[44]);
        step!(H, d, a, b, c, m[12], 11, K[45]);
        step!(H, c, d, a, b, m[15], 16, K[46]);
        step!(H, b, c, d, a, m[2], 23, K[47]);

        step!(I, a, b, c, d, m[0], 6, K[48]);
        step!(I, d, a, b, c, m[7], 10, K[49]);
        step!(I, c, d, a, b, m[14], 15, K[50]);
        step!(I, b, c, d, a, m[5], 21, K[51]);
        step!(I, a, b, c, d, m[12], 6, K[52]);
        step!(I, d, a, b, c, m[3], 10, K[53]);
        step!(I, c, d, a, b, m[10], 15, K[54]);
        step!(I, b, c, d, a, m[1], 21, K[55]);
        step!(I, a, b, c, d, m[8], 6, K[56]);
        step!(I, d, a, b, c, m[15], 10, K[57]);
        step!(I, c, d, a, b, m[6], 15, K[58]);
        step!(I, b, c, d, a, m[13], 21, K[59]);
        step!(I, a, b, c, d, m[4], 6, K[60]);
        step!(I, d, a, b, c, m[11], 10, K[61]);
        step!(I, c, d, a, b, m[2], 15, K[62]);
        step!(I, b, c, d, a, m[9], 21, K[63]);
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80 then zeros to 56 mod 64, then the 64-bit length.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Append length without counting it (update() would re-add to len,
        // but len is no longer read afterwards).
        self.update(&bit_len.to_le_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 16];
        for (i, s) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Finish and return the lowercase hex digest.
    pub fn finalize_hex(self) -> String {
        let d = self.finalize();
        let mut s = String::with_capacity(32);
        for b in d {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// One-shot digest of a byte slice.
    pub fn digest_hex(data: &[u8]) -> String {
        let mut h = Md5::new();
        h.update(data);
        h.finalize_hex()
    }
}

/// Parallel MD5 of per-rank sub-arrays (the paper's scheme): each sub-array
/// gets its own digest, computed concurrently; the collection digest is the
/// MD5 of the concatenated per-chunk digests.
pub fn parallel_digest(chunks: &[&[f32]]) -> (Vec<String>, String) {
    use rayon::prelude::*;
    let per: Vec<String> = chunks
        .par_iter()
        .map(|c| {
            let mut h = Md5::new();
            h.update_f32(c);
            h.finalize_hex()
        })
        .collect();
    let mut top = Md5::new();
    for d in &per {
        top.update(d.as_bytes());
    }
    (per, top.finalize_hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compression loop [`Md5::process_block`] was unrolled from:
    /// round-indexed schedule, rotation table and the formula sine table.
    fn process_block_loop(state: &mut [u32; 4], block: &[u8; 64]) {
        const S: [u32; 16] = [7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21];
        let k = k_formula();
        let m: [u32; 16] = std::array::from_fn(|i| {
            u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap())
        });
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let sum = a.wrapping_add(f).wrapping_add(k[i]).wrapping_add(m[g]);
            (a, d, c) = (d, c, b);
            b = b.wrapping_add(sum.rotate_left(S[4 * (i / 16) + i % 4]));
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }

    fn k_formula() -> [u32; 64] {
        std::array::from_fn(|i| (((i as f64 + 1.0).sin().abs()) * 4294967296.0).floor() as u32)
    }

    /// Whole-message MD5 through [`process_block_loop`]: pad, then compress.
    fn digest_loop(data: &[u8]) -> [u8; 16] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = Md5::new().state;
        for block in msg.chunks_exact(64) {
            process_block_loop(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 16];
        for (o, s) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Seeded bytes (splitmix64).
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..len).map(|_| next() as u8).collect()
    }

    #[test]
    fn literal_k_table_is_the_sine_formula() {
        assert_eq!(K, k_formula());
    }

    #[test]
    fn straight_line_rounds_equal_the_loop() {
        for len in 0..=300 {
            let data = random_bytes(len as u64, len);
            let mut h = Md5::new();
            h.update(&data);
            assert_eq!(h.finalize(), digest_loop(&data), "len {len}");
        }
        let big = random_bytes(0x004d_4435, 4 << 20);
        let mut h = Md5::new();
        h.update(&big);
        assert_eq!(h.finalize(), digest_loop(&big), "4 MiB buffer");
    }

    /// RFC 1321 appendix test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Md5::digest_hex(input.as_bytes()), want, "input {input:?}");
        }
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            Md5::digest_hex(b"The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Md5::digest_hex(&data);
        // Irregular chunking crossing block boundaries.
        let mut h = Md5::new();
        let mut pos = 0;
        for step in [1usize, 63, 64, 65, 100, 1000, 7] {
            if pos >= data.len() {
                break;
            }
            let end = (pos + step).min(data.len());
            h.update(&data[pos..end]);
            pos = end;
        }
        h.update(&data[pos..]);
        assert_eq!(h.finalize_hex(), oneshot);
    }

    #[test]
    fn f32_update_matches_byte_update() {
        let vals: Vec<f32> = (0..5000).map(|i| (i as f32).sin()).collect();
        let mut a = Md5::new();
        a.update_f32(&vals);
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut b = Md5::new();
        b.update(&bytes);
        assert_eq!(a.finalize_hex(), b.finalize_hex());
    }

    #[test]
    fn parallel_digest_is_deterministic() {
        let a: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..1000).map(|i| -(i as f32)).collect();
        let (per1, top1) = parallel_digest(&[&a, &b]);
        let (per2, top2) = parallel_digest(&[&a, &b]);
        assert_eq!(per1, per2);
        assert_eq!(top1, top2);
        assert_ne!(per1[0], per1[1]);
        // Order matters for the collection digest.
        let (_, top_rev) = parallel_digest(&[&b, &a]);
        assert_ne!(top1, top_rev);
    }

    #[test]
    fn digest_differs_on_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        let d1 = Md5::digest_hex(&data);
        data[512] ^= 1;
        let d2 = Md5::digest_hex(&data);
        assert_ne!(d1, d2);
    }

    #[test]
    fn length_padding_boundaries() {
        // Messages of length 55, 56, 63, 64, 65 exercise all padding paths.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![b'x'; len];
            let d = Md5::digest_hex(&data);
            assert_eq!(d.len(), 32);
            // Compare against incremental one-byte-at-a-time.
            let mut h = Md5::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize_hex(), d, "len {len}");
        }
    }
}
