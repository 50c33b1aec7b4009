//! Property tests: datatype machinery — struct gather/scatter roundtrips,
//! pack/unpack identity, vector-type strides — over randomized layouts and
//! contents.

use integration::with_ranks;
use mpisim::dtype::{BasicType, Datatype, FieldKind};
use mpisim::PackBuf;
use proptest::prelude::*;

fn basic_type() -> impl Strategy<Value = BasicType> {
    prop_oneof![
        Just(BasicType::U8),
        Just(BasicType::I32),
        Just(BasicType::I64),
        Just(BasicType::F32),
        Just(BasicType::F64),
    ]
}

/// A random valid (non-overlapping, in-bounds) struct layout and its extent.
fn layout_strategy() -> impl Strategy<Value = (Vec<(usize, usize, BasicType)>, usize)> {
    proptest::collection::vec((basic_type(), 1usize..5), 1..6).prop_map(|fields| {
        let mut out = Vec::new();
        let mut off = 0usize;
        for (ty, blocklen) in fields {
            // Align the block to the element size.
            let align = ty.size();
            off = off.div_ceil(align) * align;
            out.push((off, blocklen, ty));
            off += blocklen * ty.size();
        }
        // Trailing padding.
        let extent = off.div_ceil(8) * 8 + 8;
        (out, extent)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn struct_gather_scatter_roundtrip(
        (fields, extent) in layout_strategy(),
        count in 1usize..5,
        seed in any::<u64>(),
    ) {
        let descr: Vec<(&str, usize, usize, FieldKind)> = fields
            .iter()
            .map(|&(off, bl, ty)| ("f", off, bl, FieldKind::Basic(ty)))
            .collect();
        let dt = Datatype::try_struct(&descr, extent).unwrap();

        // Random raw image.
        let mut raw = vec![0u8; count * extent];
        let mut x = seed | 1;
        for b in raw.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }

        let mut packed = Vec::new();
        dt.gather(&raw, count, &mut packed);
        prop_assert_eq!(packed.len(), count * dt.packed_size());

        let mut back = vec![0u8; count * extent];
        dt.scatter(&packed, count, &mut back);

        // Every described byte roundtrips; padding stays zero.
        for e in 0..count {
            for &(off, bl, ty) in &fields {
                let lo = e * extent + off;
                let hi = lo + bl * ty.size();
                prop_assert_eq!(&back[lo..hi], &raw[lo..hi]);
            }
        }
    }

    #[test]
    fn gather_then_scatter_is_idempotent(
        (fields, extent) in layout_strategy(),
    ) {
        let descr: Vec<(&str, usize, usize, FieldKind)> = fields
            .iter()
            .map(|&(off, bl, ty)| ("f", off, bl, FieldKind::Basic(ty)))
            .collect();
        let dt = Datatype::try_struct(&descr, extent).unwrap();
        let raw = vec![0xABu8; extent];
        let mut p1 = Vec::new();
        dt.gather(&raw, 1, &mut p1);
        let mut img = vec![0u8; extent];
        dt.scatter(&p1, 1, &mut img);
        let mut p2 = Vec::new();
        dt.gather(&img, 1, &mut p2);
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn pack_unpack_identity(
        ints in proptest::collection::vec(any::<i32>(), 0..16),
        doubles in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..16),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let ints2 = ints.clone();
        let doubles2 = doubles.clone();
        let bytes2 = bytes.clone();
        let res = with_ranks(1, move |ctx| {
            let m = ctx.machine().mpi;
            let size = ints2.len() * 4 + doubles2.len() * 8 + bytes2.len() + 16;
            let mut pb = PackBuf::with_capacity(size);
            pb.pack(ctx, &ints2, &m);
            pb.pack(ctx, &doubles2, &m);
            pb.pack(ctx, &bytes2, &m);

            let mut rb = PackBuf::from_bytes(pb.packed());
            let mut i_out = vec![0i32; ints2.len()];
            let mut d_out = vec![0f64; doubles2.len()];
            let mut b_out = vec![0u8; bytes2.len()];
            rb.unpack(ctx, &mut i_out, &m);
            rb.unpack(ctx, &mut d_out, &m);
            rb.unpack(ctx, &mut b_out, &m);
            (i_out, d_out, b_out)
        });
        let (i_out, d_out, b_out) = res.per_rank[0].clone();
        prop_assert_eq!(i_out, ints);
        prop_assert_eq!(d_out, doubles);
        prop_assert_eq!(b_out, bytes);
    }

    #[test]
    fn vector_type_strided_roundtrip(
        count in 1usize..6,
        blocklen in 1usize..4,
        extra_stride in 0usize..4,
        vals in proptest::collection::vec(any::<i64>(), 64),
    ) {
        let stride = blocklen + extra_stride;
        let dt = Datatype::Vector { count, blocklen, stride, elem: BasicType::I64 };
        let needed = dt.extent() / 8;
        prop_assume!(needed <= vals.len());

        let raw = mpisim::as_bytes(&vals);
        let mut packed = Vec::new();
        dt.gather(raw, 1, &mut packed);
        let vals_ref = &vals;
        let expected: Vec<i64> = (0..count)
            .flat_map(|b| (0..blocklen).map(move |k| vals_ref[b * stride + k]))
            .collect();
        let got: Vec<i64> = mpisim::vec_from_bytes(&packed);
        prop_assert_eq!(&got, &expected);

        let mut img = vec![0i64; vals.len()];
        dt.scatter(&packed, 1, mpisim::as_bytes_mut(&mut img));
        for b in 0..count {
            for k in 0..blocklen {
                prop_assert_eq!(img[b * stride + k], vals[b * stride + k]);
            }
        }
    }

    #[test]
    fn packed_size_never_exceeds_extent_for_structs(
        (fields, extent) in layout_strategy(),
    ) {
        let descr: Vec<(&str, usize, usize, FieldKind)> = fields
            .iter()
            .map(|&(off, bl, ty)| ("f", off, bl, FieldKind::Basic(ty)))
            .collect();
        let dt = Datatype::try_struct(&descr, extent).unwrap();
        prop_assert!(dt.packed_size() <= dt.extent());
    }
}

/// Differential check of the lowering chooser: one ring exchange of a
/// random strided-plus-SoA payload, executed under every lowering policy
/// (pack, derived datatype, cost-model auto), every backend, and both
/// execution engines. The lowering strategy decides how the runtime
/// *charges* the transfer, never what arrives: all combinations must
/// deliver bit-identical buffers.
mod lowering_differential {
    use commint::prelude::*;
    use mpisim::Comm;
    use netsim::{run, ExecPolicy, SimConfig};
    use proptest::prelude::*;

    #[derive(Clone, Copy, Debug)]
    struct Layout {
        blocklen: usize,
        stride: usize,
        count: usize,
    }

    /// Per-rank (strided dst bits, SoA int field, SoA float field bits).
    type RingSnapshot = Vec<(Vec<u64>, Vec<i64>, Vec<u64>)>;

    fn ring(
        l: Layout,
        target: Target,
        policy: LoweringPolicy,
        exec: ExecPolicy,
        seed: u64,
        n: usize,
    ) -> RingSnapshot {
        let res = run(SimConfig::new(n).with_exec(exec), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_lowering(policy);
            let me = session.rank() as u64;
            let mem = (l.count - 1) * l.stride + l.blocklen;
            let src: Vec<f64> = (0..mem)
                .map(|i| (seed ^ (me << 32) ^ i as u64) as f64)
                .collect();
            let mut dst = vec![0f64; mem];
            let sa: Vec<i64> = (0..l.count)
                .map(|i| (seed as i64) + (me as i64) * 1000 + i as i64)
                .collect();
            let sb: Vec<f64> = (0..l.count)
                .map(|i| (seed ^ me ^ (i as u64) << 8) as f64)
                .collect();
            let mut ra = vec![0i64; l.count];
            let mut rb = vec![0f64; l.count];
            let params = CommParams::new()
                .sender(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                )
                .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
                .target(target);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(1)
                        .count(RankExpr::lit(l.count as i64))
                        .sbuf(PrimStrided::new("s", &src, l.blocklen, l.stride))
                        .rbuf(PrimStridedMut::new("r", &mut dst, l.blocklen, l.stride))
                        .run()
                        .unwrap();
                    reg.p2p()
                        .site(2)
                        .count(RankExpr::lit(l.count as i64))
                        .sbuf(Soa::new("ss").field("a", &sa).field("b", &sb))
                        .rbuf(SoaMut::new("sr").field("a", &mut ra).field("b", &mut rb))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            (
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ra,
                rb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        });
        res.per_rank
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn every_policy_backend_engine_combo_is_bit_identical(
            blocklen in 1usize..4,
            extra_stride in 0usize..4,
            count in 1usize..8,
            seed in any::<u64>(),
        ) {
            let l = Layout { blocklen, stride: blocklen + extra_stride, count };
            let n = 4;
            let mut reference: Option<RingSnapshot> = None;
            for target in Target::ALL {
                let mut per_target: Option<RingSnapshot> = None;
                for policy in [
                    LoweringPolicy::Auto,
                    LoweringPolicy::AlwaysPack,
                    LoweringPolicy::AlwaysDatatype,
                ] {
                    for exec in [ExecPolicy::default(), ExecPolicy::bounded(2)] {
                        let got = ring(l, target, policy, exec, seed, n);
                        // Within a target: every policy and engine agrees.
                        match &per_target {
                            None => per_target = Some(got),
                            Some(want) => prop_assert_eq!(
                                &got, want,
                                "divergent payload: {:?} {:?} {:?}", target, policy, l
                            ),
                        }
                    }
                }
                // Across targets the delivered bytes agree too (same ring).
                match &reference {
                    None => reference = Some(per_target.unwrap()),
                    Some(want) => prop_assert_eq!(
                        &per_target.unwrap(), want,
                        "divergent across targets at {:?} {:?}", target, l
                    ),
                }
            }
            // And the data is actually the neighbour's, not just consistent.
            let got = reference.unwrap();
            for (r, (_, ra, _)) in got.iter().enumerate() {
                let prev = ((r + n - 1) % n) as i64;
                prop_assert_eq!(ra[0], seed as i64 + prev * 1000);
            }
        }
    }
}
