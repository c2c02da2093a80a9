//! The redistribute → filter → restore engine (Figures 2–3).
//!
//! Both FFT variants share the same three-phase structure; they differ only
//! in the *assignment* of lines to processors:
//!
//! 1. **Forward movement** — every rank packs, for each filterable line
//!    whose latitude it owns, its longitude chunk, addressed to the line's
//!    assigned filterer. One message per communicating pair; pairs with
//!    nothing to exchange send nothing (a transpose within a processor row
//!    costs O(row²) messages, not O(mesh²) — Figure 3's row transpose is
//!    the row-local special case). Chunks a rank assigns to itself are not
//!    packed at all: phase 2 copies them straight from the field row.
//! 2. **Local filtering** — the assignee reassembles complete longitude
//!    lines back to back in one contiguous buffer, grouped by latitude
//!    (one spectral multiplier per latitude; ascending latitude, canonical
//!    line order within one), and filters each group through the batched
//!    FFT engine: two real lines per complex transform, the odd tail
//!    through the half-size real transform, all scratch reused from a
//!    [`FilterScratch`]. The pairing follows that order, so the order is
//!    part of the result's bits.
//! 3. **Inverse movement** — filtered lines are split back into the
//!    original chunks and returned; "inverse data movements … restore the
//!    data layout which existed prior to the filtering." Self chunks go
//!    straight from the assembly buffer back into the field row.
//!
//! Packing order is the canonical line order on both sides, so no indices
//! travel with the data — the set-up bookkeeping makes the streams
//! self-describing.
//!
//! With `only_var: None` (the production organization) one pass moves
//! *every* variable of a filter class, so a filtered step costs at most one
//! forward and one backward message per communicating rank pair per class —
//! the aggregation the paper's §3.3 reorganization allows. `Some(var)`
//! reproduces the original one-variable-at-a-time organization for the
//! paper-faithful runs.

use crate::filterfn::FilterKind;
use crate::lines::FilterSetup;
use agcm_fft::batch::filter_lines_flat;
use agcm_fft::ops::{pair_filter_flops, real_filter_flops};
use agcm_fft::FftWorkspace;
use agcm_grid::field::Field3D;
use agcm_mps::message::Payload;
use agcm_mps::topology::CartComm;

const TAG_FWD: u64 = 401;
const TAG_BWD: u64 = 402;

/// Reusable per-rank state of the redistribute engine.
///
/// Everything the engine needs across timesteps lives here — FFT
/// workspace, line-assembly buffer and its latitude grouping, receive
/// staging, pack cursors — so a long simulation stops paying the
/// allocator on the filter's critical path. Buffers grow to the
/// high-water mark on the first filtered step and are reused verbatim
/// afterwards. (Outgoing message buffers are the one exception: the
/// transport takes ownership of each sent `Vec`, so those are built fresh
/// per send.)
#[derive(Default)]
pub struct FilterScratch {
    /// Workspace for the allocation-free FFT executor.
    ws: FftWorkspace,
    /// Lines this rank filters, back to back, grouped by latitude.
    assembled: Vec<f64>,
    /// Assembly slot of each line this rank filters, in canonical line
    /// order.
    slots: Vec<usize>,
    /// Per latitude, the end slot of its group (after slot assignment).
    group_ends: Vec<usize>,
    /// Receive staging, indexed by source rank.
    bufs: Vec<Vec<f64>>,
    /// Return-path staging, indexed by owner rank.
    ret_bufs: Vec<Vec<f64>>,
    /// Per-rank consumption cursors (reset per phase).
    cursors: Vec<usize>,
    /// Ranks to receive from in the current phase.
    peers: Vec<bool>,
}

impl FilterScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> FilterScratch {
        FilterScratch::default()
    }

    fn reset(&mut self, p: usize) {
        self.bufs.iter_mut().for_each(Vec::clear);
        self.bufs.resize(p, Vec::new());
        self.ret_bufs.iter_mut().for_each(Vec::clear);
        self.ret_bufs.resize(p, Vec::new());
        self.cursors.clear();
        self.cursors.resize(p, 0);
        self.peers.clear();
        self.peers.resize(p, false);
    }

    fn reset_cursors(&mut self) {
        self.cursors.iter_mut().for_each(|c| *c = 0);
    }

    /// Lay out the lines this rank filters (`owned`, in canonical order)
    /// by latitude: a counting sort into `slots`, stable within each
    /// latitude. Afterwards `group_ends[lat]` is the end slot of `lat`'s
    /// group, which starts where the previous latitude's group ends.
    fn group_by_latitude(&mut self, n_lat: usize, owned: impl Iterator<Item = usize> + Clone) {
        self.group_ends.clear();
        self.group_ends.resize(n_lat + 1, 0);
        for lat in owned.clone() {
            self.group_ends[lat + 1] += 1;
        }
        for lat in 0..n_lat {
            self.group_ends[lat + 1] += self.group_ends[lat];
        }
        // `group_ends[lat]` now holds the first slot of `lat`; handing out
        // slots advances it to the group's end.
        self.slots.clear();
        for lat in owned {
            self.slots.push(self.group_ends[lat]);
            self.group_ends[lat] += 1;
        }
    }
}

/// Run one filter class through the redistribute/filter/restore engine.
///
/// `owners[l]` names the rank that filters line `l` (indices into
/// `setup.lines(kind)`). `only_var` restricts the pass to a single variable
/// — the original code's one-variable-at-a-time organization; `None`
/// moves every variable of the class concurrently (the §3.3
/// reorganization).
pub(crate) fn redistribute_filter(
    setup: &FilterSetup,
    cart: &CartComm,
    fields: &mut [Field3D],
    kind: FilterKind,
    owners: &[usize],
    only_var: Option<usize>,
    scratch: &mut FilterScratch,
) {
    let comm = cart.comm();
    let p = comm.size();
    let rank = comm.rank();
    let (my_row, my_col) = cart.coords();
    let sub = setup.decomp.subdomain(my_row, my_col);
    let lines = setup.lines(kind);
    assert_eq!(owners.len(), lines.len(), "one owner per line");
    let n_lon = setup.grid.n_lon;
    let mesh_lon = setup.decomp.mesh_lon;
    let selected = |var: usize| only_var.is_none_or(|v| v == var);
    let holds = |lat: usize| sub.lats().contains(&lat);
    scratch.reset(p);
    let owns = |idx: usize, var: usize| owners[idx] == rank && selected(var);
    let owned_lats = lines
        .iter()
        .enumerate()
        .filter(|&(idx, line)| owns(idx, line.var))
        .map(|(_, line)| line.lat);

    // --- Phase 1: forward movement (skip empty pairs and self). ----------
    // Send buffers are freshly allocated: `Payload::F64` hands the Vec to
    // the transport, which owns it until the receiver drains it.
    comm.phase_begin("redist_fwd");
    let mut send: Vec<Vec<f64>> = vec![Vec::new(); p];
    for (idx, line) in lines.iter().enumerate() {
        let dst = owners[idx];
        if dst != rank && selected(line.var) && holds(line.lat) {
            send[dst].extend_from_slice(fields[line.var].row_slice(line.lat - sub.j0, line.lev));
        }
    }
    for (dst, buf) in send.into_iter().enumerate() {
        if !buf.is_empty() {
            comm.send(dst, TAG_FWD, Payload::F64(buf));
        }
    }
    // Sources: every column of the mesh row owning the latitude of each
    // line assigned to us (all hold a non-empty chunk).
    for lat in owned_lats.clone() {
        let src_row = setup.decomp.row_of_lat(lat);
        for c in 0..mesh_lon {
            scratch.peers[src_row * mesh_lon + c] = true;
        }
    }
    for src in (0..p).filter(|&src| src != rank && scratch.peers[src]) {
        scratch.bufs[src] = comm.recv_f64(src, TAG_FWD);
    }

    comm.phase_end("redist_fwd");

    // --- Phase 2: assemble by latitude, batch-filter each latitude. ------
    comm.phase_begin("filter_local");
    let n_lat = setup.grid.n_lat;
    scratch.group_by_latitude(n_lat, owned_lats);
    scratch.assembled.resize(scratch.slots.len() * n_lon, 0.0);
    let mut slots = scratch.slots.iter();
    for (idx, line) in lines.iter().enumerate() {
        if !owns(idx, line.var) {
            continue;
        }
        let slot = *slots.next().expect("one slot per owned line");
        let out = &mut scratch.assembled[slot * n_lon..(slot + 1) * n_lon];
        let src_row = setup.decomp.row_of_lat(line.lat);
        for c in 0..mesh_lon {
            let src = src_row * mesh_lon + c;
            let (i0, ni) = setup.col_chunk(c);
            let chunk = if src == rank {
                fields[line.var].row_slice(line.lat - sub.j0, line.lev)
            } else {
                let cur = scratch.cursors[src];
                scratch.cursors[src] += ni;
                &scratch.bufs[src][cur..cur + ni]
            };
            out[i0..i0 + ni].copy_from_slice(chunk);
        }
    }
    // All lines at one latitude share one multiplier, so each latitude's
    // contiguous group batches into pair-packed transforms (two lines per
    // FFT; the odd line goes through the half-size real transform).
    let mut flops = 0.0;
    let mut begin = 0;
    for lat in 0..n_lat {
        let end = scratch.group_ends[lat];
        if end > begin {
            let mult = setup.multiplier(kind, lat);
            let (pairs, tail) = ((end - begin) / 2, (end - begin) % 2);
            let group = &mut scratch.assembled[begin * n_lon..end * n_lon];
            filter_lines_flat(&setup.fft, group, mult, &mut scratch.ws);
            flops +=
                pairs as f64 * pair_filter_flops(n_lon) + tail as f64 * real_filter_flops(n_lon);
        }
        begin = end;
    }
    comm.record_flops(flops);
    agcm_telemetry::registry()
        .counter("filter.lines_filtered")
        .add(scratch.slots.len() as u64);
    comm.phase_end("filter_local");

    // --- Phase 3: inverse movement (same sparsity, reversed). ------------
    comm.phase_begin("redist_bwd");
    let mut back: Vec<Vec<f64>> = vec![Vec::new(); p];
    let mut slots = scratch.slots.iter();
    for (idx, line) in lines.iter().enumerate() {
        if !owns(idx, line.var) {
            continue;
        }
        let slot = *slots.next().expect("one slot per owned line");
        let out = &scratch.assembled[slot * n_lon..(slot + 1) * n_lon];
        let dst_row = setup.decomp.row_of_lat(line.lat);
        for c in 0..mesh_lon {
            let dst = dst_row * mesh_lon + c;
            let (i0, ni) = setup.col_chunk(c);
            if dst == rank {
                fields[line.var]
                    .row_slice_mut(line.lat - sub.j0, line.lev)
                    .copy_from_slice(&out[i0..i0 + ni]);
            } else {
                back[dst].extend_from_slice(&out[i0..i0 + ni]);
            }
        }
    }
    for (dst, buf) in back.into_iter().enumerate() {
        if !buf.is_empty() {
            comm.send(dst, TAG_BWD, Payload::F64(buf));
        }
    }
    // Sources of returned data: the other owners of the lines whose
    // chunks we hold.
    scratch.peers.iter_mut().for_each(|peer| *peer = false);
    for (idx, line) in lines.iter().enumerate() {
        if selected(line.var) && holds(line.lat) {
            scratch.peers[owners[idx]] = true;
        }
    }
    for src in (0..p).filter(|&src| src != rank && scratch.peers[src]) {
        scratch.ret_bufs[src] = comm.recv_f64(src, TAG_BWD);
    }
    scratch.reset_cursors();
    for (idx, line) in lines.iter().enumerate() {
        let o = owners[idx];
        if o != rank && selected(line.var) && holds(line.lat) {
            let cur = scratch.cursors[o];
            let chunk = &scratch.ret_bufs[o][cur..cur + sub.ni];
            fields[line.var].set_row(line.lat - sub.j0, line.lev, chunk);
            scratch.cursors[o] += sub.ni;
        }
    }
    // Every returned byte must have been consumed.
    for (o, buf) in scratch.ret_bufs.iter().enumerate() {
        debug_assert_eq!(scratch.cursors[o], buf.len(), "stray data from owner {o}");
    }
    comm.phase_end("redist_bwd");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_is_by_ascending_latitude_then_line_order() {
        let mut scratch = FilterScratch::new();
        // Owned lines in canonical (var, lat, lev) order: two variables
        // over latitudes 0, 4 and 1.
        let lats = [0, 0, 4, 1, 0, 4, 4, 1];
        scratch.group_by_latitude(6, lats.iter().copied());
        // Latitude 0 takes slots 0-2, latitude 1 slots 3-4, latitude 4
        // slots 5-7, each in the lines' own order.
        assert_eq!(scratch.slots, [0, 1, 5, 3, 2, 6, 7, 4]);
        assert_eq!(scratch.group_ends, [3, 5, 5, 5, 8, 8, 8]);

        // Reuse keeps the storage and recomputes from scratch.
        scratch.group_by_latitude(6, [5, 2].into_iter());
        assert_eq!(scratch.slots, [1, 0]);
        assert_eq!(scratch.group_ends, [0, 0, 1, 1, 1, 2, 2]);
    }
}
