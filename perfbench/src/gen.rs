//! Seeded inputs of the `analyze_edit` workload: a corpus of directive
//! specs and an editor's request schedule over it.
//!
//! Every generated file mirrors one shipped spec: the two-hop `setEvec`
//! relay of `crates/wl-lsms/pragmas/spin_exchange.comm` (two regions),
//! the three-directive atom transfer of `atom_transfer.comm`, the
//! composite atom record of `atom_composite.comm`, and the ring and
//! fan-in of `examples/pragmas` (one region each). So the corpus has the
//! shipped specs' region counts and `@ranks` widths. The seed varies the
//! order of the files, the counts, the low end of every `@ranks` range
//! and the target of every region. The request mix follows the phases of
//! the `fig_serve` load bench (see [`kind_deck`]). Everything is a pure
//! function of the seed.

/// SplitMix64: small, fast, and the same sequence on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

const TARGETS: [&str; 3] = [
    "TARGET_COMM_MPI_2SIDE",
    "TARGET_COMM_SHMEM",
    "TARGET_COMM_MPI_1SIDE",
];

/// A number in the source that a one-region semantic edit toggles.
#[derive(Clone, Debug)]
struct Slot {
    /// Byte offset of the digits in the base text.
    at: usize,
    len: usize,
    alt: String,
}

/// One spec file: its base text and the numbers an edit may change.
#[derive(Clone, Debug)]
pub struct SpecFile {
    pub name: String,
    /// Which shipped spec it mirrors, an index into [`SHAPES`].
    shape: usize,
    base: String,
    slots: Vec<Slot>,
}

/// Mutable editor state of one file.
#[derive(Clone, Debug)]
pub struct FileState {
    toggled: Vec<bool>,
    touched: bool,
}

impl SpecFile {
    fn new(name: String, shape: usize, base: String) -> Self {
        let mut slots = Vec::new();
        for key in ["count(", "max_comm_iter("] {
            let mut from = 0;
            while let Some(i) = base[from..].find(key) {
                let at = from + i + key.len();
                let len = base[at..].bytes().take_while(u8::is_ascii_digit).count();
                if len > 0 {
                    let v: u64 = base[at..at + len].parse().expect("digits");
                    let alt = if v > 1 { v - 1 } else { v + 1 };
                    slots.push(Slot {
                        at,
                        len,
                        alt: alt.to_string(),
                    });
                }
                from = at;
            }
        }
        slots.sort_by_key(|s| s.at);
        SpecFile {
            name,
            shape,
            base,
            slots,
        }
    }

    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    pub fn fresh_state(&self) -> FileState {
        FileState {
            toggled: vec![false; self.slots.len()],
            touched: false,
        }
    }

    /// The file's text in `state`. A touch adds a comment line at the top,
    /// which moves every span but changes no structural hash.
    pub fn render(&self, state: &FileState) -> String {
        let mut out = String::with_capacity(self.base.len() + 16);
        if state.touched {
            out.push_str("// touched\n");
        }
        let mut pos = 0;
        for (slot, &on) in self.slots.iter().zip(&state.toggled) {
            if on {
                out.push_str(&self.base[pos..slot.at]);
                out.push_str(&slot.alt);
                pos = slot.at + slot.len;
            }
        }
        out.push_str(&self.base[pos..]);
        out
    }
}

/// The shipped specs the files mirror: `spin_exchange`, `atom_transfer`,
/// `atom_composite`, `ring_shift`, `fan_in_reduce`.
const SHAPES: [usize; 5] = [0, 1, 2, 3, 4];

/// Render the regions of shape `shape`; returns (annotation lines,
/// region text).
fn regions(rng: &mut Rng, shape: usize, target: &str) -> (Vec<String>, String) {
    match shape {
        // spin_exchange.comm: the master sends to the first stage, which
        // relays to the second, `max_comm_iter` times per call; the two
        // adjacent regions share one synchronisation.
        0 => {
            let n = rng.range(2, 8);
            let iters = [rng.range(8, 64), rng.range(8, 64)];
            let target2 = TARGETS[rng.range(0, TARGETS.len() - 1)];
            (
                vec![
                    format!("// @decl ev: double[{n}]"),
                    format!("// @decl st: double[{n}]"),
                    format!("// @decl evec: double[{n}]"),
                    "// @var wl = 0".to_string(),
                    "// @var dest = 1".to_string(),
                    "// @var src = 1".to_string(),
                    "// @var dst = 2".to_string(),
                ],
                format!(
                    "#pragma comm_parameters sender(wl) receiver(dest) sendwhen(rank==wl) \
                     receivewhen(rank==dest) count({n}) max_comm_iter({}) \
                     place_sync(END_ADJ_PARAM_REGIONS) target({target})\n\
                     {{\n    #pragma comm_p2p sbuf(ev) rbuf(st)\n    {{ }}\n}}\n\
                     #pragma comm_parameters sender(src) receiver(dst) sendwhen(rank==src) \
                     receivewhen(rank==dst) count({n}) max_comm_iter({}) target({target2})\n\
                     {{\n    #pragma comm_p2p sbuf(st) rbuf(evec)\n    {{ }}\n}}\n",
                    iters[0], iters[1]
                ),
            )
        }
        // atom_transfer.comm: three directives, one consolidated sync.
        1 => {
            let jmt = rng.range(100, 2000);
            let numc = rng.range(10, 200);
            (
                vec![
                    "// @decl sc: char[176]".to_string(),
                    format!("// @decl vr: double[{jmt}]"),
                    format!("// @decl rho: double[{jmt}]"),
                    format!("// @decl ec: double[{numc}]"),
                    format!("// @decl nc: int[{numc}]"),
                    "// @var from = 0".to_string(),
                    "// @var to = 1".to_string(),
                ],
                format!(
                    "#pragma comm_parameters sender(from) receiver(to) sendwhen(rank==from) \
                     receivewhen(rank==to) place_sync(END_PARAM_REGION) target({target})\n{{\n    \
                     #pragma comm_p2p sbuf(sc) rbuf(sc) count(176)\n    {{ }}\n    \
                     #pragma comm_p2p sbuf(vr, rho) rbuf(vr, rho) count({jmt})\n    {{ }}\n    \
                     #pragma comm_p2p sbuf(ec, nc) rbuf(ec, nc) count({numc})\n    {{ }}\n}}\n"
                ),
            )
        }
        // atom_composite.comm: one strided composite record.
        2 => {
            let n = rng.range(500, 4000);
            (
                vec![
                    format!("// @decl rec: double[1] vector({n}, {n}) of {n}"),
                    "// @var from = 0".to_string(),
                    "// @var to = 1".to_string(),
                ],
                format!(
                    "#pragma comm_parameters sender(from) receiver(to) sendwhen(rank==from) \
                     receivewhen(rank==to) place_sync(END_PARAM_REGION) target({target})\n{{\n    \
                     #pragma comm_p2p sbuf(rec) rbuf(rec) count(1)\n    {{ }}\n}}\n"
                ),
            )
        }
        // ring_shift.comm: every rank sends right and receives from the left.
        3 => {
            let n = rng.range(8, 128);
            (
                vec![
                    format!("// @decl hout: double[{n}]"),
                    format!("// @decl hin: double[{n}]"),
                ],
                format!(
                    "#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) \
                     count({n}) target({target})\n{{\n    #pragma comm_p2p sbuf(hout) rbuf(hin)\n    \
                     {{ }}\n}}\n"
                ),
            )
        }
        // fan_in_reduce.comm: one rank sends to the root per call.
        _ => {
            let n = rng.range(2, 32);
            (
                vec![
                    format!("// @decl con: double[{n}]"),
                    format!("// @decl acc: double[{n}]"),
                    "// @var fsrc = 1".to_string(),
                ],
                format!(
                    "#pragma comm_parameters sender(fsrc) receiver(0) sendwhen(rank==fsrc) \
                     receivewhen(rank==0) count({n}) target({target})\n{{\n    \
                     #pragma comm_p2p sbuf(con) rbuf(acc)\n    {{ }}\n}}\n"
                ),
            )
        }
    }
}

/// Draws from a balanced multiset: every value once per round, in a
/// seeded order, so each seed's corpus has the same mix of shapes, sizes
/// and targets and only their arrangement and details vary.
struct Deck<T: Copy> {
    all: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(all: &[T]) -> Self {
        Deck {
            all: all.to_vec(),
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.all.clone();
        }
        let i = rng.range(0, self.left.len() - 1);
        self.left.swap_remove(i)
    }
}

/// The `@ranks` range of the shipped spec each shape mirrors: the lowest
/// low end the generator draws and the range's width. The relay needs
/// three ranks; `spin_exchange.comm` itself starts at 9.
const RANKS: [(usize, usize); 5] = [(3, 40), (2, 14), (2, 14), (2, 30), (2, 14)];

/// The balanced draws that shape each generated file. The low end of a
/// file's `@ranks` range is dealt per shape, as analysis cost grows with
/// the rank counts swept.
struct Decks {
    shapes: Deck<usize>,
    targets: Deck<&'static str>,
    lo: Vec<Deck<usize>>,
}

impl Decks {
    fn new() -> Self {
        Decks {
            shapes: Deck::new(&SHAPES),
            targets: Deck::new(&TARGETS),
            lo: SHAPES.iter().map(|_| Deck::new(&[0, 1, 2, 3, 4])).collect(),
        }
    }
}

/// One generated spec file named `name`, mirroring one shipped spec.
fn spec(rng: &mut Rng, decks: &mut Decks, name: &str) -> SpecFile {
    let shape = decks.shapes.draw(rng);
    let (min_lo, width) = RANKS[shape];
    let lo = min_lo + decks.lo[shape].draw(rng);
    let target = decks.targets.draw(rng);
    let (ann, body) = regions(rng, shape, target);
    let text = format!(
        "// Generated spec {name}, shape {shape}.\n{}\n// @ranks {lo}..={}\n{body}",
        ann.join("\n"),
        lo + width
    );
    SpecFile::new(name.to_string(), shape, text)
}

/// What a scheduled request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A one-region semantic edit of an open file.
    Write,
    /// An unchanged re-request or a formatting-only touch of an open file.
    Read,
    /// The first request for a file the engine has not seen.
    Open,
}

/// One scheduled request: `file` indexes [`Inputs::files`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub kind: Kind,
    pub file: usize,
    /// Write: the slot toggled. Read: `Some(0)` for a touch toggle,
    /// `None` for an unchanged re-request.
    pub slot: Option<usize>,
}

/// The corpus and the schedule. Files `0..corpus` are analysed cold
/// before the schedule starts; the rest are opened by it, in order.
pub struct Inputs {
    pub files: Vec<SpecFile>,
    pub corpus: usize,
    pub schedule: Vec<Step>,
}

/// The schedule's request kinds, dealt as a deck so every seed's schedule
/// has the same mix. The mix is that of `fig_serve`
/// (`crates/bench/src/bin/fig_serve.rs`), the repository's load bench of
/// the analysis service, with one client: after the batch reference it
/// sends each spec a cold request (an open), an identical warm one, a
/// formatting-only touch, a one-region edit, and an identical replay of
/// the unedited set. Taking one edit per spec (`fig_serve` repeats one
/// spec's edit `--toggles` times to take a best-of time), that is, in
/// every 5 requests: 1 write, 2 unchanged re-requests, 1 touch and
/// 1 open. Reads are the majority, the editor steady state that
/// `DESIGN.md` §11 and the engine's response cache are built for.
fn kind_deck() -> Deck<(Kind, bool)> {
    Deck::new(&[
        (Kind::Write, false),
        (Kind::Read, false),
        (Kind::Read, false),
        (Kind::Read, true),
        (Kind::Open, false),
    ])
}

pub fn inputs(seed: u64, corpus: usize, opens: usize, steps: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut decks = Decks::new();
    let files: Vec<SpecFile> = (0..corpus + opens)
        .map(|i| spec(&mut rng, &mut decks, &format!("gen/s{seed}_{i:03}.comm")))
        .collect();
    assert!(corpus >= SHAPES.len(), "the corpus must hold every shape");
    let mut kinds = kind_deck();
    // The shape each write, re-request and touch lands on is dealt too,
    // one deck per kind, so on every seed they fall on the shapes (whose
    // analysis costs differ severalfold) in the same proportions.
    let mut aims: Vec<Deck<usize>> = (0..3).map(|_| Deck::new(&SHAPES)).collect();
    let mut open = corpus;
    let mut schedule = Vec::with_capacity(steps);
    while schedule.len() < steps {
        let (kind, touch) = kinds.draw(&mut rng);
        if kind == Kind::Open && open < files.len() {
            open += 1;
            schedule.push(Step {
                kind,
                file: open - 1,
                slot: None,
            });
            continue;
        }
        // With no file left to open, an open becomes a re-request.
        let kind = if kind == Kind::Open { Kind::Read } else { kind };
        let aim = &mut aims[usize::from(kind == Kind::Read) + usize::from(touch)];
        let shape = aim.draw(&mut rng);
        let of_shape: Vec<usize> = (0..open).filter(|&f| files[f].shape == shape).collect();
        let file = of_shape[rng.range(0, of_shape.len() - 1)];
        let slot = match kind {
            Kind::Write => Some(rng.range(0, files[file].slots() - 1)),
            _ => touch.then_some(0),
        };
        schedule.push(Step { kind, file, slot });
    }
    Inputs {
        files,
        corpus,
        schedule,
    }
}

/// Apply `step` to the editor state and return the file's new text.
pub fn apply(files: &[SpecFile], states: &mut [FileState], step: Step) -> String {
    let st = &mut states[step.file];
    match (step.kind, step.slot) {
        (Kind::Write, Some(s)) => st.toggled[s] = !st.toggled[s],
        (Kind::Read, Some(_)) => st.touched = !st.touched,
        _ => {}
    }
    files[step.file].render(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commlint::LintOptions;
    use pragma_front::SymbolTable;

    #[test]
    fn same_seed_same_inputs() {
        let a = inputs(7, 6, 4, 300);
        let b = inputs(7, 6, 4, 300);
        assert_eq!(a.schedule, b.schedule);
        for (x, y) in a.files.iter().zip(&b.files) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.base, y.base);
        }
        let c = inputs(8, 6, 4, 300);
        assert_ne!(a.schedule, c.schedule);
        assert!(a.files.iter().zip(&c.files).any(|(x, y)| x.base != y.base));
    }

    #[test]
    fn schedule_mixes_every_kind_and_opens_each_file_once() {
        let inp = inputs(3, 6, 10, 400);
        for k in [Kind::Write, Kind::Read, Kind::Open] {
            assert!(inp.schedule.iter().any(|s| s.kind == k), "{k:?} missing");
        }
        let opened: Vec<usize> = inp
            .schedule
            .iter()
            .filter(|s| s.kind == Kind::Open)
            .map(|s| s.file)
            .collect();
        assert_eq!(opened, (6..6 + opened.len()).collect::<Vec<_>>());
        // With files left to open, every 5 requests hold the same mix.
        let full = inputs(3, 5, 80, 400);
        let count = |k: Kind, touch: bool| {
            full.schedule
                .iter()
                .filter(|s| s.kind == k && (k != Kind::Read || s.slot.is_some() == touch))
                .count()
        };
        assert_eq!(count(Kind::Write, false), 80);
        assert_eq!(count(Kind::Read, false), 160);
        assert_eq!(count(Kind::Read, true), 80);
        assert_eq!(count(Kind::Open, false), 80);
        // Writes fall on every shape equally.
        let mut per_shape = [0usize; 5];
        for s in full.schedule.iter().filter(|s| s.kind == Kind::Write) {
            per_shape[full.files[s.file].shape] += 1;
        }
        assert_eq!(per_shape, [16; 5]);
        // Writes and reads only touch files already open at that point.
        let mut open = 6;
        for s in &inp.schedule {
            match s.kind {
                Kind::Open => open += 1,
                _ => assert!(s.file < open),
            }
        }
    }

    #[test]
    fn every_generated_spec_parses_lints_and_proves() {
        let symbols = SymbolTable::new();
        let opts = LintOptions::default();
        for seed in 0..6 {
            let inp = inputs(seed, 5, 12, 60);
            let mut states: Vec<FileState> = inp.files.iter().map(|f| f.fresh_state()).collect();
            let mut texts: Vec<String> = inp
                .files
                .iter()
                .zip(&states)
                .map(|(f, st)| f.render(st))
                .collect();
            for &step in &inp.schedule {
                texts.push(apply(&inp.files, &mut states, step));
            }
            for (i, src) in texts.iter().enumerate() {
                let ann = commlint::scan_annotations(src);
                let mut syms = symbols.clone();
                commlint::apply_decls(&mut syms, &ann);
                pragma_front::parse(src, &syms).unwrap_or_else(|e| {
                    panic!("seed {seed} text {i} does not parse: {e:?}\n{src}")
                });
                commlint::lint_source(src, &symbols, &opts).expect("lints");
                commprove::prove_source("g.comm", src, &symbols, &opts).expect("proves");
            }
        }
    }

    #[test]
    fn edits_and_touches_toggle() {
        let f = spec(&mut Rng::new(1), &mut Decks::new(), "x.comm");
        assert!(f.slots() > 0);
        let mut st = vec![f.fresh_state()];
        let base = f.render(&st[0]);
        let edit = Step {
            kind: Kind::Write,
            file: 0,
            slot: Some(0),
        };
        let edited = apply(std::slice::from_ref(&f), &mut st, edit);
        assert_ne!(edited, base);
        assert_eq!(apply(std::slice::from_ref(&f), &mut st, edit), base);
        let touch = Step {
            kind: Kind::Read,
            file: 0,
            slot: Some(0),
        };
        let touched = apply(std::slice::from_ref(&f), &mut st, touch);
        assert!(touched.ends_with(&base) && touched.starts_with("// touched\n"));
    }
}
