//! The wire layer both binary formats are written in: the DCO format
//! here and `dynacut-criu`'s checkpoint format. Integers are
//! little-endian; a string is a `u32` length and its UTF-8 bytes, a byte
//! vector a `u64` length and its bytes, and a table a `u32` entry count
//! and its entries.
//!
//! [`Reader`] borrows its input and checks every length and count
//! against the bytes left before it allocates anything. Each read fails
//! with a [`WireError`] on input too short for it, and
//! [`finish`](Reader::finish) refuses bytes past the end of the format.

/// Where an encoder writes: a `Vec<u8>` collects the bytes, and a
/// [`ByteCount`] only adds up how many there would be, so one encoder
/// gives a format's bytes and, without building them, their length.
pub trait Sink {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, value: u8) {
        self.put_slice(&[value]);
    }

    /// Appends a `u16`.
    fn put_u16_le(&mut self, value: u16) {
        self.put_slice(&value.to_le_bytes());
    }

    /// Appends a `u32`.
    fn put_u32_le(&mut self, value: u32) {
        self.put_slice(&value.to_le_bytes());
    }

    /// Appends a `u64`.
    fn put_u64_le(&mut self, value: u64) {
        self.put_slice(&value.to_le_bytes());
    }

    /// Appends a string's length or a table's entry count as a `u32`.
    fn put_count(&mut self, count: usize) {
        debug_assert!(u32::try_from(count).is_ok(), "count {count} overflows u32");
        #[allow(
            clippy::cast_possible_truncation,
            reason = "every count is a name's or path's length or the entries of \
                      an in-memory image table, each far below u32::MAX"
        )]
        self.put_u32_le(count as u32);
    }

    /// Appends a string.
    fn put_str(&mut self, s: &str) {
        self.put_count(s.len());
        self.put_slice(s.as_bytes());
    }

    /// Appends a byte vector.
    fn put_vec(&mut self, bytes: &[u8]) {
        self.put_u64_le(bytes.len() as u64);
        self.put_slice(bytes);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// A [`Sink`] that counts the bytes written to it and keeps none.
#[derive(Debug)]
pub struct ByteCount(pub usize);

impl Sink for ByteCount {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Why an input was refused. Each format reports it as its own
/// `BadImage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

/// A cursor over borrowed input.
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader at the start of `raw`.
    pub fn new(raw: &'a [u8]) -> Self {
        Reader(raw)
    }

    fn short(&self, len: usize) -> WireError {
        WireError(format!("truncated: {} of {len} bytes", self.0.len()))
    }

    /// The next `len` bytes, borrowed from the input.
    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self
            .0
            .split_at_checked(len)
            .ok_or_else(|| self.short(len))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.0 = rest;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a format's 4-byte magic number, failing unless it is
    /// `expected`.
    pub fn magic(&mut self, expected: &[u8; 4]) -> Result<(), WireError> {
        match self.array() {
            Ok(found) if found == *expected => Ok(()),
            _ => Err(WireError("bad magic".into())),
        }
    }

    /// Reads a string, failing if its bytes are not UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| WireError("non-utf8 string".into()))
    }

    /// Reads a byte vector, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        // A length past `usize` is past the input too.
        let len = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        self.take(len)
    }

    /// Reads a table, `entry` reading each entry, which takes at least
    /// `min_entry_len` bytes. A count the bytes left cannot hold fails
    /// before the table is allocated.
    pub fn table<T>(
        &mut self,
        min_entry_len: usize,
        mut entry: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_entry_len) > self.0.len() {
            return Err(WireError(format!(
                "a table of {count} entries cannot fit in the {} bytes left",
                self.0.len()
            )));
        }
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            table.push(entry(self)?);
        }
        Ok(table)
    }

    /// Ends the read, failing if any input is left.
    pub fn finish(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            left => Err(WireError(format!("trailing bytes: {left}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(sink: &mut impl Sink) {
        sink.put_u8(0xAB);
        sink.put_u16_le(0x1234);
        sink.put_u32_le(0xDEAD_BEEF);
        sink.put_u64_le(0x0123_4567_89AB_CDEF);
        sink.put_str("name");
        sink.put_vec(b"payload");
        sink.put_count(2);
        sink.put_u64_le(7);
        sink.put_u64_le(9);
    }

    #[test]
    fn every_primitive_round_trips() {
        let mut bytes = Vec::new();
        encode(&mut bytes);
        let mut reader = Reader::new(&bytes);
        assert_eq!(reader.u8(), Ok(0xAB));
        assert_eq!(reader.u16(), Ok(0x1234));
        assert_eq!(reader.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(reader.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(reader.str().as_deref(), Ok("name"));
        assert_eq!(reader.bytes(), Ok(&b"payload"[..]));
        assert_eq!(reader.table(8, Reader::u64), Ok(vec![7, 9]));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn the_byte_count_is_the_written_length() {
        let mut bytes = Vec::new();
        encode(&mut bytes);
        let mut count = ByteCount(0);
        encode(&mut count);
        assert_eq!(count.0, bytes.len());
    }

    /// A count the bytes left cannot hold is refused before a single
    /// entry is read or the table allocated, and so is a length.
    #[test]
    fn a_count_past_the_input_fails_before_allocating() {
        let mut bytes = Vec::new();
        bytes.put_count(u32::MAX as usize);
        bytes.put_u64_le(1);
        let mut reads = 0;
        let table = Reader::new(&bytes).table(8, |reader| {
            reads += 1;
            reader.u64()
        });
        assert!(table.is_err());
        assert_eq!(reads, 0);

        // Two 8-byte entries do not fit in 15 bytes.
        let mut bytes = Vec::new();
        bytes.put_count(2);
        bytes.put_slice(&[0; 15]);
        assert!(Reader::new(&bytes).table(8, Reader::u64).is_err());

        let mut bytes = Vec::new();
        bytes.put_u64_le(u64::MAX);
        assert!(Reader::new(&bytes).bytes().is_err());
        let mut bytes = Vec::new();
        bytes.put_u32_le(u32::MAX);
        assert!(Reader::new(&bytes).str().is_err());
    }

    #[test]
    fn short_input_and_trailing_bytes_are_refused() {
        assert!(Reader::new(&[1, 2, 3]).u32().is_err());
        assert!(Reader::new(b"DCO").magic(b"DCO1").is_err());
        assert!(Reader::new(b"DCR1").magic(b"DCO1").is_err());
        let mut reader = Reader::new(&[1, 2]);
        assert_eq!(reader.u8(), Ok(1));
        assert!(reader.finish().is_err());
    }
}
