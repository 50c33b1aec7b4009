//! Buffer descriptors for the `sbuf`/`rbuf` clauses.
//!
//! A directive buffer is a slice of primitive elements or of *described
//! composite* values (the paper's composite types: scalar structs like the
//! WL-LSMS single-atom data). The buffer carries everything the translator
//! needs: element kind (→ automatic data-type handling), length (→ count
//! inference from "the size of the smallest array"), and the address range
//! (→ buffer-independence analysis for synchronization consolidation).
//!
//! Composite element access is field-wise through the declared layout, so
//! padding bytes are never read — the same discipline the generated
//! MPI-struct code follows. Pointers inside composites are unrepresentable
//! (the [`FieldSpec`] trait has no pointer impl), turning the paper's
//! runtime prohibition into a compile-time guarantee; nested composites are
//! likewise rejected because only primitive field specs exist.

use mpisim::dtype::{BasicType, Datatype, StructField};
use mpisim::pod::{as_bytes, as_bytes_mut, Pod};

/// A primitive element type admissible in buffers.
pub trait PrimElem: Pod {
    /// The corresponding MPI basic type.
    const BASIC: BasicType;
}

impl PrimElem for u8 {
    const BASIC: BasicType = BasicType::U8;
}
impl PrimElem for i32 {
    const BASIC: BasicType = BasicType::I32;
}
impl PrimElem for i64 {
    const BASIC: BasicType = BasicType::I64;
}
impl PrimElem for f32 {
    const BASIC: BasicType = BasicType::F32;
}
impl PrimElem for f64 {
    const BASIC: BasicType = BasicType::F64;
}

/// Field shape inside a composite: `(basic type, block length)`.
/// Implemented for primitives and fixed-size arrays of primitives only —
/// pointers and nested composites cannot occur, by construction.
pub trait FieldSpec {
    /// The element type of the block.
    const TY: BasicType;
    /// Number of consecutive elements.
    const BLOCKLEN: usize;
}

impl<P: PrimElem> FieldSpec for P {
    const TY: BasicType = P::BASIC;
    const BLOCKLEN: usize = 1;
}

impl<P: PrimElem, const N: usize> FieldSpec for [P; N] {
    const TY: BasicType = P::BASIC;
    const BLOCKLEN: usize = N;
}

/// One field of a composite layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (diagnostics, codegen).
    pub name: String,
    /// Byte offset within the composite.
    pub offset: usize,
    /// Element type of the block.
    pub ty: BasicType,
    /// Number of consecutive elements.
    pub blocklen: usize,
}

/// The declared layout of a composite element type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeLayout {
    /// Type name (diagnostics, codegen).
    pub name: String,
    /// Memory extent of one element (`size_of::<T>()`).
    pub extent: usize,
    /// Field blocks, in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One member of a one-level-nested composite declaration: either a plain
/// primitive block or an embedded composite whose (already flat) layout is
/// spliced in at a byte offset. Because [`CompositeLayout`] itself holds
/// only primitive [`FieldDef`]s, nesting deeper than one level is
/// unrepresentable — the paper's recursive-nesting prohibition, relaxed by
/// exactly one level.
#[derive(Clone, Debug)]
pub enum NestedField {
    /// A primitive field block.
    Prim(FieldDef),
    /// An embedded composite: `layout` placed at byte `offset`, its fields
    /// flattened into the parent as `name.field`.
    Nested {
        /// Member name in the outer struct.
        name: String,
        /// Byte offset of the embedded value within the outer struct.
        offset: usize,
        /// The inner composite's layout.
        layout: CompositeLayout,
    },
}

impl CompositeLayout {
    /// Build and validate a layout for `T`. Panics on layout violations
    /// (overlaps, blocks past the extent) — these are programming errors in
    /// the type description, equivalent to compiler bugs in the paper's
    /// setting.
    pub fn new<T>(name: &str, fields: Vec<FieldDef>) -> CompositeLayout {
        let extent = std::mem::size_of::<T>();
        let layout = CompositeLayout {
            name: name.to_string(),
            extent,
            fields,
        };
        layout
            .to_datatype_checked()
            .unwrap_or_else(|e| panic!("invalid composite layout for {name}: {e}"));
        layout
    }

    /// Build a layout for `T` from members that may embed one level of
    /// composite: each [`NestedField::Nested`] member is flattened into the
    /// parent (inner offsets shifted by the member offset, names qualified
    /// as `member.field`), then validated like [`CompositeLayout::new`].
    /// The result is an ordinary flat layout — every analysis, datatype
    /// conversion and wire format downstream is unchanged.
    pub fn nested<T>(name: &str, members: Vec<NestedField>) -> CompositeLayout {
        let mut fields = Vec::new();
        for m in members {
            match m {
                NestedField::Prim(f) => fields.push(f),
                NestedField::Nested {
                    name: member,
                    offset,
                    layout,
                } => {
                    for f in &layout.fields {
                        fields.push(FieldDef {
                            name: format!("{member}.{}", f.name),
                            offset: offset + f.offset,
                            ty: f.ty,
                            blocklen: f.blocklen,
                        });
                    }
                }
            }
        }
        CompositeLayout::new::<T>(name, fields)
    }

    /// Bytes of payload one element contributes (sum of field blocks).
    pub fn packed_size(&self) -> usize {
        self.fields.iter().map(|f| f.blocklen * f.ty.size()).sum()
    }

    /// The equivalent MPI struct datatype.
    pub fn to_datatype(&self) -> Datatype {
        Datatype::Struct {
            fields: self
                .fields
                .iter()
                .map(|f| StructField {
                    offset: f.offset,
                    blocklen: f.blocklen,
                    ty: f.ty,
                })
                .collect(),
            extent: self.extent,
        }
    }

    fn to_datatype_checked(&self) -> Result<Datatype, mpisim::dtype::DtypeError> {
        let descr: Vec<(&str, usize, usize, mpisim::dtype::FieldKind)> = self
            .fields
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.offset,
                    f.blocklen,
                    mpisim::dtype::FieldKind::Basic(f.ty),
                )
            })
            .collect();
        Datatype::try_struct(&descr, self.extent)
    }
}

/// A composite type whose layout is declared for communication.
///
/// # Safety
///
/// The layout must describe only initialized, padding-free field ranges of
/// `Self`, with correct offsets and block lengths. Use the
/// [`comm_datatype!`](crate::comm_datatype) macro, which derives offsets
/// with `std::mem::offset_of!` and is always correct.
pub unsafe trait Described: Copy + Send + Sync + 'static {
    /// The communication layout of this type.
    fn layout() -> CompositeLayout;
}

/// Gather the described fields of `items` into packed bytes (appending to
/// `out`). Field-wise copies: padding is never read.
pub fn gather_described<T: Described>(items: &[T], count: usize, out: &mut Vec<u8>) {
    let layout = T::layout();
    assert!(count <= items.len(), "gather count exceeds buffer length");
    out.reserve(count * layout.packed_size());
    for item in &items[..count] {
        let base = (item as *const T).cast::<u8>();
        for f in &layout.fields {
            let len = f.blocklen * f.ty.size();
            let start = out.len();
            out.resize(start + len, 0);
            // SAFETY: the layout contract guarantees [offset, offset+len)
            // is an initialized field range of T.
            unsafe {
                std::ptr::copy_nonoverlapping(base.add(f.offset), out[start..].as_mut_ptr(), len);
            }
        }
    }
}

/// Scatter packed bytes into the described fields of `items`.
pub fn scatter_described<T: Described>(items: &mut [T], count: usize, packed: &[u8]) {
    let layout = T::layout();
    assert!(count <= items.len(), "scatter count exceeds buffer length");
    assert!(
        packed.len() >= count * layout.packed_size(),
        "scatter source too small: {} < {}",
        packed.len(),
        count * layout.packed_size()
    );
    let mut pos = 0usize;
    for item in &mut items[..count] {
        let base = (item as *mut T).cast::<u8>();
        for f in &layout.fields {
            let len = f.blocklen * f.ty.size();
            // SAFETY: layout contract as in `gather_described`; writing
            // field ranges of a Copy type is always sound.
            unsafe {
                std::ptr::copy_nonoverlapping(packed[pos..].as_ptr(), base.add(f.offset), len);
            }
            pos += len;
        }
    }
}

/// One parallel array of a struct-of-arrays group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaField {
    /// Array name (diagnostics, codegen).
    pub name: String,
    /// Element type of the array.
    pub ty: BasicType,
    /// Values each record contributes to this array.
    pub blocklen: usize,
}

/// Struct-of-arrays layout: one logical record is `blocklen` values in
/// each of several *parallel arrays* (the wl-lsms core-state shape: `ec`,
/// `nc`, `lc`, `kc` indexed by the same core-state number). The wire
/// format is field-major — all records of the first array, then all of the
/// second — so a per-array transfer is a plain split of the packed stream
/// and each array ships as one contiguous block, copy-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaLayout {
    /// Group name (diagnostics, codegen).
    pub name: String,
    /// Parallel arrays, in declaration order.
    pub fields: Vec<SoaField>,
}

impl SoaLayout {
    /// Bytes of payload one record contributes (sum over arrays).
    pub fn packed_size(&self) -> usize {
        self.fields.iter().map(|f| f.blocklen * f.ty.size()).sum()
    }

    /// The packed-equivalent MPI struct datatype (sequential offsets): the
    /// layout key for commit caching, and what an absolute-addressed
    /// `MPI_Type_create_struct` over the arrays commits to.
    pub fn to_datatype(&self) -> Datatype {
        let mut off = 0usize;
        let fields = self
            .fields
            .iter()
            .map(|f| {
                let sf = StructField {
                    offset: off,
                    blocklen: f.blocklen,
                    ty: f.ty,
                };
                off += f.blocklen * f.ty.size();
                sf
            })
            .collect();
        Datatype::Struct {
            fields,
            extent: self.packed_size(),
        }
    }
}

/// Element kind of a buffer, as the analyses and lowering see it.
#[derive(Clone, Debug, PartialEq)]
pub enum ElemKind {
    /// A primitive element.
    Prim(BasicType),
    /// A described composite element.
    Composite(CompositeLayout),
    /// A strided block of primitives: one "element" is `blocklen`
    /// consecutive values, placed `stride` values apart in memory — the
    /// `MPI_Type_vector` case (e.g. a matrix row in column-major storage).
    Strided {
        /// Underlying primitive type.
        ty: BasicType,
        /// Values per block.
        blocklen: usize,
        /// Values between block starts (≥ blocklen).
        stride: usize,
    },
    /// A struct-of-arrays record spread over parallel arrays.
    Soa(SoaLayout),
}

impl ElemKind {
    /// Payload bytes per element.
    pub fn packed_size(&self) -> usize {
        match self {
            ElemKind::Prim(t) => t.size(),
            ElemKind::Composite(l) => l.packed_size(),
            ElemKind::Strided { ty, blocklen, .. } => blocklen * ty.size(),
            ElemKind::Soa(l) => l.packed_size(),
        }
    }

    /// Memory extent per element. For struct-of-arrays the records live in
    /// disjoint arrays with no shared stride, so the payload size stands in;
    /// exact per-array address ranges come from the buffer's
    /// [`SendBuf::sub_ranges`]/[`RecvBuf::sub_ranges`].
    pub fn extent(&self) -> usize {
        match self {
            ElemKind::Prim(t) => t.size(),
            ElemKind::Composite(l) => l.extent,
            ElemKind::Strided { ty, stride, .. } => stride * ty.size(),
            ElemKind::Soa(l) => l.packed_size(),
        }
    }

    /// Bytes a transfer of `count` elements spans in *memory* (not on the
    /// wire): the footprint the receiving allocation must cover. For a
    /// strided view the final block does not extend to a full stride.
    pub fn span_bytes(&self, count: usize) -> usize {
        match self {
            ElemKind::Strided {
                ty,
                blocklen,
                stride,
            } => {
                if count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklen) * ty.size()
                }
            }
            _ => count * self.extent(),
        }
    }

    /// Number of independently-contiguous blocks one transfer decomposes
    /// into per element: the message/put fan-out of a non-packing lowering
    /// (1 for primitives and strided views — an `iput` ships all blocks in
    /// one call — the field count for composites and struct-of-arrays).
    pub fn field_count(&self) -> usize {
        match self {
            ElemKind::Prim(_) | ElemKind::Strided { .. } => 1,
            ElemKind::Composite(l) => l.fields.len().max(1),
            ElemKind::Soa(l) => l.fields.len().max(1),
        }
    }

    /// The MPI datatype equivalent (basic, struct or vector; the vector
    /// type is per-element: one block).
    pub fn to_datatype(&self) -> Datatype {
        match self {
            ElemKind::Prim(t) => Datatype::Basic(*t),
            ElemKind::Composite(l) => l.to_datatype(),
            ElemKind::Strided {
                ty,
                blocklen,
                stride,
            } => Datatype::Vector {
                count: 1,
                blocklen: *blocklen,
                stride: *stride,
                elem: *ty,
            },
            ElemKind::Soa(l) => l.to_datatype(),
        }
    }

    /// Whether two buffers can be paired in one transfer (identical wire
    /// representation). Strided and contiguous layouts are interchangeable
    /// when the block payloads agree — the wire format is packed either
    /// way (this is how a column scatters into a contiguous halo buffer).
    pub fn compatible(&self, other: &ElemKind) -> bool {
        match (self, other) {
            (ElemKind::Prim(a), ElemKind::Prim(b)) => a == b,
            (ElemKind::Composite(a), ElemKind::Composite(b)) => {
                a.packed_size() == b.packed_size()
                    && a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .zip(&b.fields)
                        .all(|(x, y)| x.ty == y.ty && x.blocklen == y.blocklen)
            }
            (
                ElemKind::Strided {
                    ty: a,
                    blocklen: la,
                    ..
                },
                ElemKind::Strided {
                    ty: b,
                    blocklen: lb,
                    ..
                },
            ) => a == b && la == lb,
            (
                ElemKind::Strided {
                    ty: a, blocklen, ..
                },
                ElemKind::Prim(b),
            )
            | (
                ElemKind::Prim(b),
                ElemKind::Strided {
                    ty: a, blocklen, ..
                },
            ) => a == b && *blocklen == 1,
            // Struct-of-arrays pairs only with the same field sequence: the
            // field-major wire format is positional per array.
            (ElemKind::Soa(a), ElemKind::Soa(b)) => {
                a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .zip(&b.fields)
                        .all(|(x, y)| x.ty == y.ty && x.blocklen == y.blocklen)
            }
            _ => false,
        }
    }
}

/// Metadata about a buffer, detached from its borrow — what the static
/// analyses operate on.
#[derive(Clone, Debug, PartialEq)]
pub struct BufMeta {
    /// Display name.
    pub name: String,
    /// Element kind.
    pub elem: ElemKind,
    /// Element count.
    pub len: usize,
    /// Address range `[lo, hi)` in bytes, for independence analysis.
    pub addr: (usize, usize),
}

impl BufMeta {
    /// Whether two buffers' memory ranges overlap.
    pub fn overlaps(&self, other: &BufMeta) -> bool {
        self.addr.0 < other.addr.1 && other.addr.0 < self.addr.1
    }
}

/// Name-free buffer descriptor for the directive execution hot path:
/// everything `comm_p2p` needs per instance. The display name stays out so
/// the common case allocates nothing (the engine evaluates every directive
/// on every rank of every loop iteration); diagnostics and IR recording
/// fetch the full [`BufMeta`] on their cold paths.
#[derive(Clone, Debug, PartialEq)]
pub struct BufDesc {
    /// Element kind.
    pub elem: ElemKind,
    /// Element count.
    pub len: usize,
    /// Address range `[lo, hi)` in bytes.
    pub addr: (usize, usize),
}

impl From<BufMeta> for BufDesc {
    fn from(m: BufMeta) -> Self {
        BufDesc {
            elem: m.elem,
            len: m.len,
            addr: m.addr,
        }
    }
}

/// A send-side buffer: read access plus metadata.
pub trait SendBuf {
    /// Buffer metadata.
    fn meta(&self) -> BufMeta;
    /// Hot-path descriptor; implementations override to skip the name.
    fn desc(&self) -> BufDesc {
        BufDesc::from(self.meta())
    }
    /// Exact per-array address ranges for views spanning multiple disjoint
    /// allocations (struct-of-arrays). `None` means the single `addr` range
    /// in the descriptor is exact. Dependence analyses must prefer these:
    /// the convex hull of unrelated heap arrays can cover other buffers,
    /// and whether it does depends on the allocator, not the program.
    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        None
    }
    /// Append `count` elements' packed bytes to `out`.
    fn gather(&self, count: usize, out: &mut Vec<u8>);
    /// The form a `comm_p2p` holds this buffer in. Boxed by default;
    /// primitive slices override it to stay inline, so building the
    /// directive instance allocates nothing.
    fn into_slot<'b>(self) -> SendSlot<'b>
    where
        Self: Sized + 'b,
    {
        SendSlot::Boxed(Box::new(self))
    }
}

/// A receive-side buffer: write access plus metadata.
pub trait RecvBuf {
    /// Buffer metadata.
    fn meta(&self) -> BufMeta;
    /// Hot-path descriptor; implementations override to skip the name.
    fn desc(&self) -> BufDesc {
        BufDesc::from(self.meta())
    }
    /// Exact per-array address ranges (see [`SendBuf::sub_ranges`]).
    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        None
    }
    /// Fill `count` elements from packed bytes.
    fn scatter(&mut self, count: usize, packed: &[u8]);
    /// The form a `comm_p2p` holds this buffer in (see
    /// [`SendBuf::into_slot`]).
    fn into_slot<'b>(self) -> RecvSlot<'b>
    where
        Self: Sized + 'b,
    {
        RecvSlot::Boxed(Box::new(self))
    }
}

fn prim_desc(ty: BasicType, len: usize, bytes: &[u8]) -> BufDesc {
    let lo = bytes.as_ptr() as usize;
    BufDesc {
        elem: ElemKind::Prim(ty),
        len,
        addr: (lo, lo + bytes.len()),
    }
}

fn prim_meta(name: &str, ty: BasicType, len: usize, bytes: &[u8]) -> BufMeta {
    let BufDesc { elem, len, addr } = prim_desc(ty, len, bytes);
    BufMeta {
        name: name.to_string(),
        elem,
        len,
        addr,
    }
}

/// A send buffer as a `comm_p2p` holds it: primitive slices inline, every
/// other buffer kind boxed.
pub enum SendSlot<'a> {
    /// A primitive slice.
    Prim(Prim<'a>),
    /// Any other buffer.
    Boxed(Box<dyn SendBuf + 'a>),
}

impl SendBuf for SendSlot<'_> {
    fn meta(&self) -> BufMeta {
        match self {
            SendSlot::Prim(p) => p.meta(),
            SendSlot::Boxed(b) => b.meta(),
        }
    }

    fn desc(&self) -> BufDesc {
        match self {
            SendSlot::Prim(p) => p.desc(),
            SendSlot::Boxed(b) => b.desc(),
        }
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        match self {
            SendSlot::Prim(_) => None,
            SendSlot::Boxed(b) => b.sub_ranges(),
        }
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        match self {
            SendSlot::Prim(p) => p.gather(count, out),
            SendSlot::Boxed(b) => b.gather(count, out),
        }
    }

    fn into_slot<'b>(self) -> SendSlot<'b>
    where
        Self: 'b,
    {
        self
    }
}

/// A receive buffer as a `comm_p2p` holds it (see [`SendSlot`]).
pub enum RecvSlot<'a> {
    /// A primitive slice.
    Prim(PrimMut<'a>),
    /// Any other buffer.
    Boxed(Box<dyn RecvBuf + 'a>),
}

impl RecvBuf for RecvSlot<'_> {
    fn meta(&self) -> BufMeta {
        match self {
            RecvSlot::Prim(p) => p.meta(),
            RecvSlot::Boxed(b) => b.meta(),
        }
    }

    fn desc(&self) -> BufDesc {
        match self {
            RecvSlot::Prim(p) => p.desc(),
            RecvSlot::Boxed(b) => b.desc(),
        }
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        match self {
            RecvSlot::Prim(_) => None,
            RecvSlot::Boxed(b) => b.sub_ranges(),
        }
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        match self {
            RecvSlot::Prim(p) => p.scatter(count, packed),
            RecvSlot::Boxed(b) => b.scatter(count, packed),
        }
    }

    fn into_slot<'b>(self) -> RecvSlot<'b>
    where
        Self: 'b,
    {
        self
    }
}

/// A named primitive send buffer. The element type is erased to its
/// [`BasicType`], so a `comm_p2p` holds it inline instead of boxing it.
pub struct Prim<'a> {
    name: &'a str,
    ty: BasicType,
    len: usize,
    bytes: &'a [u8],
}

impl<'a> Prim<'a> {
    /// Wrap a primitive slice with a display name.
    pub fn new<T: PrimElem>(name: &'a str, data: &'a [T]) -> Self {
        Prim {
            name,
            ty: T::BASIC,
            len: data.len(),
            bytes: as_bytes(data),
        }
    }
}

impl SendBuf for Prim<'_> {
    fn meta(&self) -> BufMeta {
        prim_meta(self.name, self.ty, self.len, self.bytes)
    }

    fn desc(&self) -> BufDesc {
        prim_desc(self.ty, self.len, self.bytes)
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        assert!(count <= self.len, "gather count exceeds buffer length");
        out.extend_from_slice(&self.bytes[..count * self.ty.size()]);
    }

    fn into_slot<'b>(self) -> SendSlot<'b>
    where
        Self: 'b,
    {
        SendSlot::Prim(self)
    }
}

/// A named primitive receive buffer (element type erased, see [`Prim`]).
pub struct PrimMut<'a> {
    name: &'a str,
    ty: BasicType,
    len: usize,
    bytes: &'a mut [u8],
}

impl<'a> PrimMut<'a> {
    /// Wrap a mutable primitive slice with a display name.
    pub fn new<T: PrimElem>(name: &'a str, data: &'a mut [T]) -> Self {
        PrimMut {
            name,
            ty: T::BASIC,
            len: data.len(),
            bytes: as_bytes_mut(data),
        }
    }
}

impl RecvBuf for PrimMut<'_> {
    fn meta(&self) -> BufMeta {
        prim_meta(self.name, self.ty, self.len, self.bytes)
    }

    fn desc(&self) -> BufDesc {
        prim_desc(self.ty, self.len, self.bytes)
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        assert!(count <= self.len, "scatter count exceeds buffer length");
        let n = count * self.ty.size();
        self.bytes[..n].copy_from_slice(&packed[..n]);
    }

    fn into_slot<'b>(self) -> RecvSlot<'b>
    where
        Self: 'b,
    {
        RecvSlot::Prim(self)
    }
}

fn copy_exact<T: PrimElem>(dst: &mut [T], packed: &[u8]) {
    let bytes = as_bytes_mut(dst);
    bytes.copy_from_slice(&packed[..bytes.len()]);
}

/// A named composite send buffer.
pub struct Struc<'a, T: Described> {
    name: &'a str,
    data: &'a [T],
}

impl<'a, T: Described> Struc<'a, T> {
    /// Wrap a described-composite slice with a display name.
    pub fn new(name: &'a str, data: &'a [T]) -> Self {
        Struc { name, data }
    }
}

impl<T: Described> SendBuf for Struc<'_, T> {
    fn meta(&self) -> BufMeta {
        let lo = self.data.as_ptr() as usize;
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Composite(T::layout()),
            len: self.data.len(),
            addr: (lo, lo + std::mem::size_of_val(self.data)),
        }
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        gather_described(self.data, count, out);
    }
}

/// A named composite receive buffer.
pub struct StrucMut<'a, T: Described> {
    name: &'a str,
    data: &'a mut [T],
}

impl<'a, T: Described> StrucMut<'a, T> {
    /// Wrap a mutable described-composite slice with a display name.
    pub fn new(name: &'a str, data: &'a mut [T]) -> Self {
        StrucMut { name, data }
    }
}

impl<T: Described> RecvBuf for StrucMut<'_, T> {
    fn meta(&self) -> BufMeta {
        let lo = self.data.as_ptr() as usize;
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Composite(T::layout()),
            len: self.data.len(),
            addr: (lo, lo + std::mem::size_of_val(self.data)),
        }
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        scatter_described(self.data, count, packed);
    }
}

/// A strided send view: `count` blocks of `blocklen` values, block starts
/// `stride` values apart — ships a matrix row/column without copying it
/// contiguous first (the directive's automatic `MPI_Type_vector` handling).
pub struct PrimStrided<'a, T: PrimElem> {
    name: &'a str,
    data: &'a [T],
    blocklen: usize,
    stride: usize,
}

impl<'a, T: PrimElem> PrimStrided<'a, T> {
    /// Wrap a strided view. `data` must cover every addressed block;
    /// `stride >= blocklen >= 1`.
    pub fn new(name: &'a str, data: &'a [T], blocklen: usize, stride: usize) -> Self {
        assert!(blocklen >= 1 && stride >= blocklen, "invalid stride layout");
        PrimStrided {
            name,
            data,
            blocklen,
            stride,
        }
    }

    fn n_blocks(&self) -> usize {
        if self.data.len() < self.blocklen {
            0
        } else {
            (self.data.len() - self.blocklen) / self.stride + 1
        }
    }

    fn meta_impl(&self) -> BufMeta {
        let lo = self.data.as_ptr() as usize;
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Strided {
                ty: T::BASIC,
                blocklen: self.blocklen,
                stride: self.stride,
            },
            len: self.n_blocks(),
            addr: (lo, lo + std::mem::size_of_val(self.data)),
        }
    }
}

impl<T: PrimElem> SendBuf for PrimStrided<'_, T> {
    fn meta(&self) -> BufMeta {
        self.meta_impl()
    }

    fn desc(&self) -> BufDesc {
        BufDesc {
            elem: ElemKind::Strided {
                ty: T::BASIC,
                blocklen: self.blocklen,
                stride: self.stride,
            },
            len: self.n_blocks(),
            addr: {
                let lo = self.data.as_ptr() as usize;
                (lo, lo + std::mem::size_of_val(self.data))
            },
        }
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        assert!(count <= self.n_blocks(), "gather count exceeds block count");
        for b in 0..count {
            let start = b * self.stride;
            out.extend_from_slice(as_bytes(&self.data[start..start + self.blocklen]));
        }
    }
}

/// A strided receive view (see [`PrimStrided`]).
pub struct PrimStridedMut<'a, T: PrimElem> {
    name: &'a str,
    data: &'a mut [T],
    blocklen: usize,
    stride: usize,
}

impl<'a, T: PrimElem> PrimStridedMut<'a, T> {
    /// Wrap a mutable strided view.
    pub fn new(name: &'a str, data: &'a mut [T], blocklen: usize, stride: usize) -> Self {
        assert!(blocklen >= 1 && stride >= blocklen, "invalid stride layout");
        PrimStridedMut {
            name,
            data,
            blocklen,
            stride,
        }
    }

    fn n_blocks(&self) -> usize {
        if self.data.len() < self.blocklen {
            0
        } else {
            (self.data.len() - self.blocklen) / self.stride + 1
        }
    }
}

impl<T: PrimElem> RecvBuf for PrimStridedMut<'_, T> {
    fn meta(&self) -> BufMeta {
        let lo = self.data.as_ptr() as usize;
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Strided {
                ty: T::BASIC,
                blocklen: self.blocklen,
                stride: self.stride,
            },
            len: self.n_blocks(),
            addr: (lo, lo + std::mem::size_of_val(self.data)),
        }
    }

    fn desc(&self) -> BufDesc {
        BufDesc {
            elem: ElemKind::Strided {
                ty: T::BASIC,
                blocklen: self.blocklen,
                stride: self.stride,
            },
            len: self.n_blocks(),
            addr: {
                let lo = self.data.as_ptr() as usize;
                (lo, lo + std::mem::size_of_val(self.data))
            },
        }
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        assert!(
            count <= self.n_blocks(),
            "scatter count exceeds block count"
        );
        let block_bytes = self.blocklen * std::mem::size_of::<T>();
        for b in 0..count {
            let start = b * self.stride;
            copy_exact(
                &mut self.data[start..start + self.blocklen],
                &packed[b * block_bytes..(b + 1) * block_bytes],
            );
        }
    }
}

fn soa_hull(ranges: &[(usize, usize)]) -> (usize, usize) {
    let lo = ranges.iter().map(|r| r.0).min().unwrap_or(0);
    let hi = ranges.iter().map(|r| r.1).max().unwrap_or(0);
    (lo, hi.max(lo))
}

/// A struct-of-arrays send view over parallel arrays: one logical record is
/// `blocklen` values in each declared array (the wl-lsms core-state shape).
/// Build with the chainable [`Soa::field`]/[`Soa::field_blocks`]; the
/// record count is the smallest per-array record count, so a set of empty
/// slices is a valid zero-length placeholder on non-participating ranks.
pub struct Soa<'a> {
    name: &'a str,
    fields: Vec<SoaField>,
    bytes: Vec<&'a [u8]>,
    ranges: Vec<(usize, usize)>,
}

impl<'a> Soa<'a> {
    /// Start an empty group with a display name.
    pub fn new(name: &'a str) -> Self {
        Soa {
            name,
            fields: Vec::new(),
            bytes: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Add a parallel array contributing one value per record.
    pub fn field<T: PrimElem>(self, name: &str, data: &'a [T]) -> Self {
        self.field_blocks(name, data, 1)
    }

    /// Add a parallel array contributing `blocklen` values per record.
    pub fn field_blocks<T: PrimElem>(mut self, name: &str, data: &'a [T], blocklen: usize) -> Self {
        assert!(blocklen >= 1, "soa blocklen must be at least 1");
        let raw = as_bytes(data);
        let lo = raw.as_ptr() as usize;
        self.fields.push(SoaField {
            name: name.to_string(),
            ty: T::BASIC,
            blocklen,
        });
        self.ranges.push((lo, lo + raw.len()));
        self.bytes.push(raw);
        self
    }

    fn records(&self) -> usize {
        self.fields
            .iter()
            .zip(&self.bytes)
            .map(|(f, b)| b.len() / (f.blocklen * f.ty.size()))
            .min()
            .unwrap_or(0)
    }

    fn layout(&self) -> SoaLayout {
        SoaLayout {
            name: self.name.to_string(),
            fields: self.fields.clone(),
        }
    }
}

impl SendBuf for Soa<'_> {
    fn meta(&self) -> BufMeta {
        let (lo, hi) = soa_hull(&self.ranges);
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Soa(self.layout()),
            len: self.records(),
            addr: (lo, hi),
        }
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        Some(&self.ranges)
    }

    // Field-major wire format: all records of the first array, then all of
    // the second — each array contributes one contiguous copy-free block.
    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        assert!(count <= self.records(), "gather count exceeds record count");
        for (f, b) in self.fields.iter().zip(&self.bytes) {
            out.extend_from_slice(&b[..count * f.blocklen * f.ty.size()]);
        }
    }
}

/// A struct-of-arrays receive view (see [`Soa`]).
pub struct SoaMut<'a> {
    name: &'a str,
    fields: Vec<SoaField>,
    bytes: Vec<&'a mut [u8]>,
    ranges: Vec<(usize, usize)>,
}

impl<'a> SoaMut<'a> {
    /// Start an empty group with a display name.
    pub fn new(name: &'a str) -> Self {
        SoaMut {
            name,
            fields: Vec::new(),
            bytes: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Add a parallel array receiving one value per record.
    pub fn field<T: PrimElem>(self, name: &str, data: &'a mut [T]) -> Self {
        self.field_blocks(name, data, 1)
    }

    /// Add a parallel array receiving `blocklen` values per record.
    pub fn field_blocks<T: PrimElem>(
        mut self,
        name: &str,
        data: &'a mut [T],
        blocklen: usize,
    ) -> Self {
        assert!(blocklen >= 1, "soa blocklen must be at least 1");
        let raw = as_bytes_mut(data);
        let lo = raw.as_ptr() as usize;
        self.fields.push(SoaField {
            name: name.to_string(),
            ty: T::BASIC,
            blocklen,
        });
        self.ranges.push((lo, lo + raw.len()));
        self.bytes.push(raw);
        self
    }

    fn records(&self) -> usize {
        self.fields
            .iter()
            .zip(&self.bytes)
            .map(|(f, b)| b.len() / (f.blocklen * f.ty.size()))
            .min()
            .unwrap_or(0)
    }

    fn layout(&self) -> SoaLayout {
        SoaLayout {
            name: self.name.to_string(),
            fields: self.fields.clone(),
        }
    }
}

impl RecvBuf for SoaMut<'_> {
    fn meta(&self) -> BufMeta {
        let (lo, hi) = soa_hull(&self.ranges);
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Soa(self.layout()),
            len: self.records(),
            addr: (lo, hi),
        }
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        Some(&self.ranges)
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        assert!(
            count <= self.records(),
            "scatter count exceeds record count"
        );
        let mut pos = 0usize;
        for (f, b) in self.fields.iter().zip(&mut self.bytes) {
            let len = count * f.blocklen * f.ty.size();
            b[..len].copy_from_slice(&packed[pos..pos + len]);
            pos += len;
        }
    }
}

/// Declare a communication-ready composite struct: emits a `#[repr(C)]`
/// struct plus its [`Described`] layout derived with `offset_of!`.
///
/// Pointer fields and nested composites do not compile — the paper's
/// prohibitions are enforced by the type system ([`FieldSpec`] has impls
/// only for primitives and fixed arrays of primitives).
///
/// ```
/// commint::comm_datatype! {
///     /// Example particle.
///     pub struct Particle {
///         id: i32,
///         position: [f64; 3],
///         charge: f64,
///     }
/// }
/// let layout = <Particle as commint::buffer::Described>::layout();
/// assert_eq!(layout.fields.len(), 3);
/// ```
#[macro_export]
macro_rules! comm_datatype {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr(C)]
        #[derive(Clone, Copy, Debug, PartialEq)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $ty, )*
        }

        unsafe impl $crate::buffer::Described for $name {
            fn layout() -> $crate::buffer::CompositeLayout {
                $crate::buffer::CompositeLayout::new::<$name>(
                    stringify!($name),
                    vec![
                        $( $crate::buffer::FieldDef {
                            name: stringify!($field).to_string(),
                            offset: std::mem::offset_of!($name, $field),
                            ty: <$ty as $crate::buffer::FieldSpec>::TY,
                            blocklen: <$ty as $crate::buffer::FieldSpec>::BLOCKLEN,
                        }, )*
                    ],
                )
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::comm_datatype! {
        struct Mixed {
            a: i32,
            b: f64,
            tag3: [u8; 3],
            v: [f64; 2],
        }
    }

    #[test]
    fn macro_layout_offsets_correct() {
        let layout = Mixed::layout();
        assert_eq!(layout.name, "Mixed");
        assert_eq!(layout.extent, std::mem::size_of::<Mixed>());
        assert_eq!(layout.fields.len(), 4);
        assert_eq!(layout.fields[0].offset, std::mem::offset_of!(Mixed, a));
        assert_eq!(layout.fields[1].offset, std::mem::offset_of!(Mixed, b));
        assert_eq!(layout.fields[2].blocklen, 3);
        assert_eq!(layout.fields[3].ty, BasicType::F64);
        assert_eq!(layout.packed_size(), 4 + 8 + 3 + 16);
    }

    #[test]
    fn described_gather_scatter_roundtrip() {
        let items = [
            Mixed {
                a: 1,
                b: 2.5,
                tag3: [7, 8, 9],
                v: [0.1, 0.2],
            },
            Mixed {
                a: -4,
                b: -1.5,
                tag3: [0, 1, 2],
                v: [9.9, 8.8],
            },
        ];
        let mut packed = Vec::new();
        gather_described(&items, 2, &mut packed);
        assert_eq!(packed.len(), 2 * Mixed::layout().packed_size());

        let mut back = [Mixed {
            a: 0,
            b: 0.0,
            tag3: [0; 3],
            v: [0.0; 2],
        }; 2];
        scatter_described(&mut back, 2, &packed);
        assert_eq!(back, items);
    }

    #[test]
    fn partial_count_gathers_prefix() {
        let items = [
            Mixed {
                a: 1,
                b: 1.0,
                tag3: [1; 3],
                v: [1.0; 2],
            },
            Mixed {
                a: 2,
                b: 2.0,
                tag3: [2; 3],
                v: [2.0; 2],
            },
        ];
        let mut packed = Vec::new();
        gather_described(&items, 1, &mut packed);
        assert_eq!(packed.len(), Mixed::layout().packed_size());
        let mut back = [Mixed {
            a: 0,
            b: 0.0,
            tag3: [0; 3],
            v: [0.0; 2],
        }; 2];
        scatter_described(&mut back, 1, &packed);
        assert_eq!(back[0], items[0]);
        assert_eq!(back[1].a, 0);
    }

    #[test]
    fn prim_buffers_roundtrip() {
        let src = [1.5f64, 2.5, 3.5, 4.5];
        let sb = Prim::new("src", &src);
        let meta = sb.meta();
        assert_eq!(meta.len, 4);
        assert_eq!(meta.elem, ElemKind::Prim(BasicType::F64));
        assert_eq!(meta.addr.1 - meta.addr.0, 32);

        let mut packed = Vec::new();
        sb.gather(3, &mut packed);
        assert_eq!(packed.len(), 24);

        let mut dst = [0f64; 3];
        let mut rb = PrimMut::new("dst", &mut dst);
        rb.scatter(3, &packed);
        assert_eq!(dst, [1.5, 2.5, 3.5]);
    }

    /// The erased element type must carry every `PrimElem` through the
    /// inline `comm_p2p` slot: metadata, gathered bytes and scatter
    /// results, for empty slices and partial counts.
    fn check_prim_slot<T: PrimElem + PartialEq + std::fmt::Debug>(vals: &[T], fill: T) {
        for len in [0, 1, vals.len()] {
            let data = &vals[..len];
            let slot = Prim::new("src", data).into_slot();
            assert!(matches!(slot, SendSlot::Prim(_)), "primitive stays inline");
            let lo = data.as_ptr() as usize;
            let want = BufMeta {
                name: "src".into(),
                elem: ElemKind::Prim(T::BASIC),
                len,
                addr: (lo, lo + std::mem::size_of_val(data)),
            };
            assert_eq!(slot.meta(), want);
            assert_eq!(slot.desc(), BufDesc::from(want));
            assert!(SendBuf::sub_ranges(&slot).is_none());
            for count in 0..=len {
                let mut packed = vec![0xAAu8];
                slot.gather(count, &mut packed);
                assert_eq!(
                    packed[1..],
                    *as_bytes(&data[..count]),
                    "gather {count}/{len}"
                );
                let mut dst = vec![fill; len];
                let mut rslot = PrimMut::new("dst", &mut dst).into_slot();
                assert!(matches!(rslot, RecvSlot::Prim(_)), "primitive stays inline");
                assert_eq!(rslot.meta().elem, ElemKind::Prim(T::BASIC));
                assert_eq!(rslot.desc().len, len);
                rslot.scatter(count, &packed[1..]);
                drop(rslot);
                assert_eq!(dst[..count], data[..count], "scatter {count}/{len}");
                assert!(dst[count..].iter().all(|v| *v == fill));
            }
        }
    }

    #[test]
    fn prim_slots_carry_every_elem_type() {
        check_prim_slot(&[1u8, 2, 3, 250], 0);
        check_prim_slot(&[-1i32, 7, i32::MAX], 0);
        check_prim_slot(&[i64::MIN, 3, -9, 42, 5], 0);
        check_prim_slot(&[1.5f32, -0.25, 3e9], 0.0);
        check_prim_slot(&[2.5f64, -1e-300, 7.0], 0.0);
    }

    #[test]
    fn non_primitive_buffers_are_boxed() {
        let data = [0f64; 8];
        assert!(matches!(
            PrimStrided::new("s", &data, 1, 2).into_slot(),
            SendSlot::Boxed(_)
        ));
        assert!(matches!(
            Soa::new("g").field("a", &data).into_slot(),
            SendSlot::Boxed(_)
        ));
        let mut out = [0f64; 8];
        assert!(matches!(
            SoaMut::new("g").field("a", &mut out).into_slot(),
            RecvSlot::Boxed(_)
        ));
        let slot = Soa::new("g").field("a", &data).into_slot();
        assert_eq!(SendBuf::sub_ranges(&slot).map(<[_]>::len), Some(1));
    }

    #[test]
    fn strided_gather_scatter_roundtrip() {
        // A 4x3 column-major matrix; ship row 1 (blocklen 1, stride 4).
        let m: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let row = PrimStrided::new("row1", &m[1..], 1, 4);
        let meta = row.meta();
        assert_eq!(meta.len, 3, "three row elements");
        assert_eq!(meta.elem.packed_size(), 8);
        assert_eq!(meta.elem.extent(), 32);

        let mut packed = Vec::new();
        row.gather(3, &mut packed);
        let vals: Vec<f64> = mpisim::pod::vec_from_bytes(&packed);
        assert_eq!(vals, vec![1.0, 5.0, 9.0]);

        // Scatter into another matrix's row 0.
        let mut dst = vec![0.0f64; 12];
        let mut drow = PrimStridedMut::new("row0", &mut dst, 1, 4);
        drow.scatter(3, &packed);
        assert_eq!(dst[0], 1.0);
        assert_eq!(dst[4], 5.0);
        assert_eq!(dst[8], 9.0);
        assert_eq!(dst[1], 0.0);
    }

    #[test]
    fn strided_blocks_with_blocklen() {
        // blocks of 2 every 5.
        let data: Vec<i32> = (0..12).collect();
        let s = PrimStrided::new("blocks", &data, 2, 5);
        assert_eq!(s.meta().len, 3); // starts at 0, 5, 10
        let mut packed = Vec::new();
        s.gather(3, &mut packed);
        let vals: Vec<i32> = mpisim::pod::vec_from_bytes(&packed);
        assert_eq!(vals, vec![0, 1, 5, 6, 10, 11]);
    }

    #[test]
    fn strided_compatibility_rules() {
        let col = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 1,
            stride: 8,
        };
        let other_stride = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 1,
            stride: 3,
        };
        let contig = ElemKind::Prim(BasicType::F64);
        // Same block payload, different strides: compatible (wire format
        // is packed either way).
        assert!(col.compatible(&other_stride));
        // blocklen-1 strided <-> contiguous: compatible.
        assert!(col.compatible(&contig));
        assert!(contig.compatible(&col));
        // Wider blocks are not interchangeable with single values.
        let wide = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 2,
            stride: 8,
        };
        assert!(!wide.compatible(&contig));
        assert!(!wide.compatible(&col));
    }

    #[test]
    #[should_panic(expected = "invalid stride layout")]
    fn stride_smaller_than_blocklen_rejected() {
        let data = [0f32; 8];
        let _ = PrimStrided::new("bad", &data, 3, 2);
    }

    #[test]
    fn overlap_detection() {
        let buf = [0u8; 16];
        let a = Prim::new("a", &buf[0..8]).meta();
        let b = Prim::new("b", &buf[8..16]).meta();
        let c = Prim::new("c", &buf[4..12]).meta();
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn elem_compatibility() {
        let f = ElemKind::Prim(BasicType::F64);
        let i = ElemKind::Prim(BasicType::I32);
        assert!(f.compatible(&f));
        assert!(!f.compatible(&i));
        let comp = ElemKind::Composite(Mixed::layout());
        assert!(comp.compatible(&ElemKind::Composite(Mixed::layout())));
        assert!(!comp.compatible(&f));
    }

    #[test]
    fn soa_gather_scatter_roundtrip_field_major() {
        let ec = [1.5f64, 2.5, 3.5];
        let nc = [10i32, 20, 30];
        let sb = Soa::new("core").field("ec", &ec).field("nc", &nc);
        let meta = sb.meta();
        assert_eq!(meta.len, 3);
        assert_eq!(meta.elem.packed_size(), 12);
        assert_eq!(meta.elem.field_count(), 2);

        let mut packed = Vec::new();
        sb.gather(2, &mut packed);
        assert_eq!(packed.len(), 24);
        // Field-major: both ec records precede both nc records.
        let ec_back: Vec<f64> = mpisim::pod::vec_from_bytes(&packed[..16]);
        let nc_back: Vec<i32> = mpisim::pod::vec_from_bytes(&packed[16..]);
        assert_eq!(ec_back, vec![1.5, 2.5]);
        assert_eq!(nc_back, vec![10, 20]);

        let mut ec2 = [0f64; 3];
        let mut nc2 = [0i32; 3];
        let mut rb = SoaMut::new("core")
            .field("ec", &mut ec2)
            .field("nc", &mut nc2);
        rb.scatter(2, &packed);
        assert_eq!(ec2, [1.5, 2.5, 0.0]);
        assert_eq!(nc2, [10, 20, 0]);
    }

    #[test]
    fn soa_sub_ranges_exact_and_hull_summary() {
        let a = [0f64; 4];
        let b = [0i32; 4];
        let sb = Soa::new("g").field("a", &a).field("b", &b);
        let subs = SendBuf::sub_ranges(&sb).unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0], (a.as_ptr() as usize, a.as_ptr() as usize + 32));
        assert_eq!(subs[1], (b.as_ptr() as usize, b.as_ptr() as usize + 16));
        let meta = sb.meta();
        assert!(meta.addr.0 <= subs[0].0 && meta.addr.1 >= subs[1].1);
    }

    #[test]
    fn soa_blocklen_and_empty_placeholder() {
        let vr = [1.0f64, 2.0, 3.0, 4.0];
        let sb = Soa::new("pot").field_blocks("vr", &vr, 4);
        assert_eq!(sb.meta().len, 1, "one record of four values");
        assert_eq!(sb.meta().elem.packed_size(), 32);

        let empty: [f64; 0] = [];
        let ph = Soa::new("pot").field_blocks("vr", &empty, 4);
        assert_eq!(ph.meta().len, 0, "placeholder has zero records");
        assert!(ph.meta().elem.compatible(&sb.meta().elem));
    }

    #[test]
    fn soa_compatibility_is_positional() {
        let a = [0f64; 2];
        let b = [0i32; 2];
        let x = Soa::new("x").field("a", &a).field("b", &b).meta().elem;
        let y = Soa::new("y").field("p", &a).field("q", &b).meta().elem;
        let flipped = Soa::new("z").field("b", &b).field("a", &a).meta().elem;
        assert!(x.compatible(&y), "names are irrelevant, layout is not");
        assert!(!x.compatible(&flipped));
        assert!(!x.compatible(&ElemKind::Prim(BasicType::F64)));
    }

    #[test]
    fn nested_layout_flattens_one_level() {
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Inner {
            x: f64,
            n: [i32; 2],
        }
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Outer {
            tag: i32,
            inner: Inner,
            w: f64,
        }
        let inner_layout = CompositeLayout::new::<Inner>(
            "Inner",
            vec![
                FieldDef {
                    name: "x".into(),
                    offset: std::mem::offset_of!(Inner, x),
                    ty: BasicType::F64,
                    blocklen: 1,
                },
                FieldDef {
                    name: "n".into(),
                    offset: std::mem::offset_of!(Inner, n),
                    ty: BasicType::I32,
                    blocklen: 2,
                },
            ],
        );
        let outer = CompositeLayout::nested::<Outer>(
            "Outer",
            vec![
                NestedField::Prim(FieldDef {
                    name: "tag".into(),
                    offset: std::mem::offset_of!(Outer, tag),
                    ty: BasicType::I32,
                    blocklen: 1,
                }),
                NestedField::Nested {
                    name: "inner".into(),
                    offset: std::mem::offset_of!(Outer, inner),
                    layout: inner_layout,
                },
                NestedField::Prim(FieldDef {
                    name: "w".into(),
                    offset: std::mem::offset_of!(Outer, w),
                    ty: BasicType::F64,
                    blocklen: 1,
                }),
            ],
        );
        assert_eq!(outer.fields.len(), 4, "inner fields spliced into parent");
        assert_eq!(outer.fields[1].name, "inner.x");
        assert_eq!(
            outer.fields[1].offset,
            std::mem::offset_of!(Outer, inner) + std::mem::offset_of!(Inner, x)
        );
        assert_eq!(outer.fields[2].name, "inner.n");
        assert_eq!(outer.packed_size(), 4 + 8 + 8 + 8);
        // The flattened result is an ordinary valid struct datatype.
        match outer.to_datatype() {
            Datatype::Struct { fields, extent } => {
                assert_eq!(fields.len(), 4);
                assert_eq!(extent, std::mem::size_of::<Outer>());
            }
            other => panic!("expected struct datatype, got {other:?}"),
        }
    }

    #[test]
    fn strided_span_bytes_excludes_tail_padding() {
        let col = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 2,
            stride: 4,
        };
        // 3 blocks: (3-1)*4 + 2 = 10 doubles of footprint, 6 of payload.
        assert_eq!(col.span_bytes(3), 80);
        assert_eq!(col.packed_size() * 3, 48);
        assert_eq!(col.span_bytes(0), 0);
        assert_eq!(ElemKind::Prim(BasicType::I32).span_bytes(5), 20);
    }

    #[test]
    fn elem_datatype_mapping() {
        assert_eq!(
            ElemKind::Prim(BasicType::I32).to_datatype(),
            Datatype::Basic(BasicType::I32)
        );
        match ElemKind::Composite(Mixed::layout()).to_datatype() {
            Datatype::Struct { fields, extent } => {
                assert_eq!(fields.len(), 4);
                assert_eq!(extent, std::mem::size_of::<Mixed>());
            }
            other => panic!("expected struct datatype, got {other:?}"),
        }
    }
}
