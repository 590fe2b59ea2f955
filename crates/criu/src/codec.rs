//! Binary serialisation of checkpoint images (the protobuf-format
//! analogue; stored on the harness's tmpfs-like in-memory store).
//!
//! A process image keeps its pages as one map from base to frame; the
//! encoding splits it into CRIU's on-disk pair, `pagemap.img` (the bases)
//! followed by `pages.img` (one page per base, in the same order), and
//! decoding checks that the pair agrees before it builds the map again.

use crate::images::*;
use crate::CriuError;
use bytes::{Buf, Bytes};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_vm::{ConnId, Pid, SharedFrame, SigAction, Signal};
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"DCR1";

/// Where the encoders write: a `Vec<u8>` collects the bytes, a
/// [`ByteCount`] only adds up how many there would be. Both run the
/// same encoders, so [`CheckpointImage::encoded_len`] equals
/// `to_bytes().len()` by construction.
trait Sink {
    fn put_slice(&mut self, src: &[u8]);
    fn put_u8(&mut self, value: u8) {
        self.put_slice(&[value]);
    }
    fn put_u16_le(&mut self, value: u16) {
        self.put_slice(&value.to_le_bytes());
    }
    fn put_u32_le(&mut self, value: u32) {
        self.put_slice(&value.to_le_bytes());
    }
    fn put_u64_le(&mut self, value: u64) {
        self.put_slice(&value.to_le_bytes());
    }
}

impl Sink for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

struct ByteCount(usize);

impl Sink for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Writes a string's length or a table's entry count as the format's
/// `u32`.
fn put_count(buf: &mut impl Sink, count: usize) {
    debug_assert!(u32::try_from(count).is_ok(), "count {count} overflows u32");
    #[allow(
        clippy::cast_possible_truncation,
        reason = "every count is a name's or path's length or the entries of an \
                  in-memory image table (pages, VMAs, modules, descriptors, \
                  connections, processes), each far below u32::MAX"
    )]
    buf.put_u32_le(count as u32);
}

fn put_str(buf: &mut impl Sink, s: &str) {
    put_count(buf, s.len());
    buf.put_slice(s.as_bytes());
}

fn put_vec(buf: &mut impl Sink, v: &[u8]) {
    buf.put_u64_le(v.len() as u64);
    buf.put_slice(v);
}

fn put_perms(buf: &mut impl Sink, perms: Perms) {
    buf.put_u8((perms.read as u8) | (perms.write as u8) << 1 | (perms.exec as u8) << 2);
}

struct Reader(Bytes);

impl Reader {
    fn u8(&mut self) -> Result<u8, CriuError> {
        if self.0.remaining() < 1 {
            return Err(CriuError::BadImage("truncated u8".into()));
        }
        Ok(self.0.get_u8())
    }
    fn u16(&mut self) -> Result<u16, CriuError> {
        if self.0.remaining() < 2 {
            return Err(CriuError::BadImage("truncated u16".into()));
        }
        Ok(self.0.get_u16_le())
    }
    fn u32(&mut self) -> Result<u32, CriuError> {
        if self.0.remaining() < 4 {
            return Err(CriuError::BadImage("truncated u32".into()));
        }
        Ok(self.0.get_u32_le())
    }
    fn u64(&mut self) -> Result<u64, CriuError> {
        if self.0.remaining() < 8 {
            return Err(CriuError::BadImage("truncated u64".into()));
        }
        Ok(self.0.get_u64_le())
    }
    fn str(&mut self) -> Result<String, CriuError> {
        let len = self.u32()? as usize;
        if self.0.remaining() < len {
            return Err(CriuError::BadImage("truncated string".into()));
        }
        String::from_utf8(self.0.split_to(len).to_vec())
            .map_err(|_| CriuError::BadImage("non-utf8 string".into()))
    }
    fn bytes(&mut self) -> Result<Bytes, CriuError> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&len| len <= self.0.remaining())
            .ok_or_else(|| CriuError::BadImage("truncated byte vector".into()))?;
        Ok(self.0.split_to(len))
    }
    fn vec(&mut self) -> Result<Vec<u8>, CriuError> {
        Ok(self.bytes()?.to_vec())
    }
    fn perms(&mut self) -> Result<Perms, CriuError> {
        let bits = self.u8()?;
        Ok(Perms {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            exec: bits & 4 != 0,
        })
    }
    fn magic(&mut self, expected: &[u8; 4]) -> Result<(), CriuError> {
        if self.0.remaining() < 4 || &self.0.split_to(4)[..] != expected {
            return Err(CriuError::BadImage("bad magic".into()));
        }
        Ok(())
    }
}

impl CheckpointImage {
    /// Serialises the checkpoint to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Exactly `to_bytes().len()`, without building the buffer: the
    /// size the checkpoint would take on the image store.
    pub fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode(&mut count);
        count.0
    }

    fn encode(&self, buf: &mut impl Sink) {
        buf.put_slice(MAGIC);
        buf.put_u64_le(self.time_ns);
        put_count(buf, self.procs.len());
        for image in &self.procs {
            encode_proc(buf, image);
        }
    }

    /// Parses a checkpoint previously produced by
    /// [`CheckpointImage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::BadImage`] on malformed input.
    pub fn from_bytes(raw: &[u8]) -> Result<CheckpointImage, CriuError> {
        let mut reader = Reader(Bytes::copy_from_slice(raw));
        reader.magic(MAGIC)?;
        let time_ns = reader.u64()?;
        let count = reader.u32()?;
        let mut procs = Vec::with_capacity((count as usize).min(4096));
        for _ in 0..count {
            procs.push(decode_proc(&mut reader)?);
        }
        Ok(CheckpointImage { procs, time_ns })
    }
}

fn encode_proc(buf: &mut impl Sink, image: &ProcessImage) {
    buf.put_u8(image.exec_pages_dumped as u8);
    encode_core(buf, &image.core);
    encode_mm(buf, &image.mm);
    encode_pages(buf, &image.pages);
    encode_files(buf, &image.files);
    encode_tcp(buf, &image.tcp);
}

fn decode_proc(reader: &mut Reader) -> Result<ProcessImage, CriuError> {
    let exec_pages_dumped = reader.u8()? != 0;
    let core = decode_core(reader)?;
    let mm = decode_mm(reader)?;
    let pages = decode_pages(reader)?;
    let files = decode_files(reader)?;
    let tcp = decode_tcp(reader)?;
    Ok(ProcessImage {
        core,
        mm,
        pages,
        files,
        tcp,
        exec_pages_dumped,
    })
}

fn encode_core(buf: &mut impl Sink, core: &CoreImage) {
    buf.put_u32_le(core.pid.0);
    match core.parent {
        Some(pid) => {
            buf.put_u8(1);
            buf.put_u32_le(pid.0);
        }
        None => buf.put_u8(0),
    }
    put_str(buf, &core.name);
    for reg in core.regs {
        buf.put_u64_le(reg);
    }
    buf.put_u64_le(core.pc);
    buf.put_u64_le(core.flags_bits);
    for action in core.sigactions {
        buf.put_u64_le(action.handler);
        buf.put_u64_le(action.restorer);
        buf.put_u64_le(action.mask);
    }
    buf.put_u32_le(core.signal_depth);
    buf.put_u64_le(core.insns_retired);
    buf.put_u64_le(core.syscall_filter);
    put_count(buf, core.modules.len());
    for module in &core.modules {
        put_str(buf, &module.name);
        buf.put_u64_le(module.base);
    }
}

fn decode_core(reader: &mut Reader) -> Result<CoreImage, CriuError> {
    let pid = Pid(reader.u32()?);
    let parent = match reader.u8()? {
        0 => None,
        1 => Some(Pid(reader.u32()?)),
        other => return Err(CriuError::BadImage(format!("bad parent flag {other}"))),
    };
    let name = reader.str()?;
    let mut regs = [0u64; 16];
    for reg in &mut regs {
        *reg = reader.u64()?;
    }
    let pc = reader.u64()?;
    let flags_bits = reader.u64()?;
    let mut sigactions = [SigAction::default(); Signal::COUNT];
    for action in &mut sigactions {
        action.handler = reader.u64()?;
        action.restorer = reader.u64()?;
        action.mask = reader.u64()?;
    }
    let signal_depth = reader.u32()?;
    let insns_retired = reader.u64()?;
    let syscall_filter = reader.u64()?;
    let module_count = reader.u32()?;
    let mut modules = Vec::with_capacity((module_count as usize).min(4096));
    for _ in 0..module_count {
        let name = reader.str()?;
        let base = reader.u64()?;
        modules.push(ModuleRef { name, base });
    }
    Ok(CoreImage {
        pid,
        parent,
        name,
        regs,
        pc,
        flags_bits,
        sigactions,
        signal_depth,
        insns_retired,
        modules,
        syscall_filter,
    })
}

fn encode_mm(buf: &mut impl Sink, mm: &MmImage) {
    put_count(buf, mm.vmas.len());
    for vma in &mm.vmas {
        buf.put_u64_le(vma.start);
        buf.put_u64_le(vma.end);
        put_perms(buf, vma.perms);
        put_str(buf, &vma.name);
    }
}

fn decode_mm(reader: &mut Reader) -> Result<MmImage, CriuError> {
    let vma_count = reader.u32()?;
    let mut vmas = Vec::with_capacity((vma_count as usize).min(4096));
    for _ in 0..vma_count {
        let start = reader.u64()?;
        let end = reader.u64()?;
        let perms = reader.perms()?;
        let name = reader.str()?;
        vmas.push(VmaImage {
            start,
            end,
            perms,
            name,
        });
    }
    Ok(MmImage { vmas })
}

/// `pagemap.img`, the populated bases in address order, then
/// `pages.img`, their bytes in the same order.
fn encode_pages(buf: &mut impl Sink, pages: &BTreeMap<u64, SharedFrame>) {
    put_count(buf, pages.len());
    for &base in pages.keys() {
        buf.put_u64_le(base);
    }
    buf.put_u64_le(pages.len() as u64 * PAGE_SIZE);
    for frame in pages.values() {
        buf.put_slice(frame.bytes());
    }
}

/// The inverse of [`encode_pages`]. The two files must agree: every
/// pagemap entry page-aligned and strictly above the one before it, and
/// exactly one page of payload per entry.
fn decode_pages(reader: &mut Reader) -> Result<BTreeMap<u64, SharedFrame>, CriuError> {
    let count = reader.u32()?;
    let mut bases = Vec::with_capacity((count as usize).min(4096));
    for _ in 0..count {
        bases.push(reader.u64()?);
    }
    let payload = reader.bytes()?;
    if payload.len() as u64 != u64::from(count) * PAGE_SIZE {
        return Err(CriuError::BadImage(format!(
            "pages.img holds {} bytes but pagemap.img lists {count} pages",
            payload.len()
        )));
    }
    let mut pages = BTreeMap::new();
    for (&base, page) in bases.iter().zip(payload.as_chunks().0) {
        if !base.is_multiple_of(PAGE_SIZE) {
            return Err(CriuError::BadImage(format!(
                "pagemap entry {base:#x} is not page-aligned"
            )));
        }
        if let Some((&last, _)) = pages.last_key_value() {
            if base <= last {
                return Err(CriuError::BadImage(format!(
                    "pagemap entry {base:#x} is not above the entry {last:#x} before it"
                )));
            }
        }
        pages.insert(base, SharedFrame::new(page));
    }
    Ok(pages)
}

fn encode_files(buf: &mut impl Sink, files: &FilesImage) {
    put_count(buf, files.fds.len());
    for (fd, entry) in &files.fds {
        buf.put_u32_le(*fd);
        match entry {
            FdImage::Console => buf.put_u8(0),
            FdImage::File { path, pos } => {
                buf.put_u8(1);
                put_str(buf, path);
                buf.put_u64_le(*pos);
            }
            FdImage::Socket => buf.put_u8(2),
            FdImage::Listener { port } => {
                buf.put_u8(3);
                buf.put_u16_le(*port);
            }
            FdImage::Conn { id } => {
                buf.put_u8(4);
                buf.put_u64_le(id.0);
            }
        }
    }
}

fn decode_files(reader: &mut Reader) -> Result<FilesImage, CriuError> {
    let fd_count = reader.u32()?;
    let mut fds = Vec::with_capacity((fd_count as usize).min(4096));
    for _ in 0..fd_count {
        let fd = reader.u32()?;
        let entry = match reader.u8()? {
            0 => FdImage::Console,
            1 => {
                let path = reader.str()?;
                let pos = reader.u64()?;
                FdImage::File { path, pos }
            }
            2 => FdImage::Socket,
            3 => FdImage::Listener {
                port: reader.u16()?,
            },
            4 => FdImage::Conn {
                id: ConnId(reader.u64()?),
            },
            other => return Err(CriuError::BadImage(format!("bad fd kind {other}"))),
        };
        fds.push((fd, entry));
    }
    Ok(FilesImage { fds })
}

fn encode_tcp(buf: &mut impl Sink, tcp: &TcpImage) {
    put_count(buf, tcp.conns.len());
    for conn in &tcp.conns {
        buf.put_u64_le(conn.id.0);
        buf.put_u16_le(conn.port);
        put_vec(buf, &conn.to_server);
        put_vec(buf, &conn.to_client);
    }
}

fn decode_tcp(reader: &mut Reader) -> Result<TcpImage, CriuError> {
    let conn_count = reader.u32()?;
    let mut conns = Vec::with_capacity((conn_count as usize).min(4096));
    for _ in 0..conn_count {
        let id = ConnId(reader.u64()?);
        let port = reader.u16()?;
        let to_server = reader.vec()?;
        let to_client = reader.vec()?;
        conns.push(TcpConnImage {
            id,
            port,
            to_server,
            to_client,
        });
    }
    Ok(TcpImage { conns })
}
