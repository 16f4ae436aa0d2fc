//! Everything a run feeds the system, generated from `--seed` before
//! any clock starts: the two catalogs, the request pool, the update
//! stream and the standing queries.

use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::Update;
use iloc_core::{CipqStrategy, Issuer, RangeSpec};
use iloc_datagen::{
    california_points, long_beach_rects, point_objects, uniform_objects, PointUpdate,
    PointUpdateGen, UpdateMix, SPACE,
};
use iloc_geometry::{Point, Rect};
use iloc_server::protocol::{self, WireError, WireUpdate};
use iloc_uncertainty::{PointObject, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Mix, Scale, Spec, DATASET_SEED, SUB_U};

#[derive(Debug, Clone)]
pub enum Request {
    Point(PointRequest),
    Uncertain(UncertainRequest),
}

impl Request {
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::Point(r) => protocol::encode_point_query(buf, r),
            Request::Uncertain(r) => protocol::encode_uncertain_query(buf, r),
        }
    }
}

/// Both paper catalogs: California points and Long Beach rectangles as
/// uniform-pdf objects: the dataset half of set-up.
///
/// The catalogs do not move with `--seed`; the traffic does. Another
/// dataset seed puts the clusters elsewhere and makes them denser or
/// sparser, which moved the median query cost of `refine_heavy`
/// between 264 and 403 µs across ten seeds: that is a different
/// workload, not another sample of the same one.
pub fn catalogs(scale: Scale) -> (Vec<PointObject>, Vec<UncertainObject>) {
    let points = point_objects(&california_points(scale.points, DATASET_SEED));
    let uncertain = uniform_objects(&long_beach_rects(scale.rects, DATASET_SEED + 1));
    (points, uncertain)
}

pub struct Inputs {
    pub pool: Vec<Request>,
    /// One entry per write cycle, in the order they are sent.
    pub batches: Vec<Vec<WireUpdate>>,
    pub subs: Vec<PointRequest>,
}

/// Issuer regions of half-size `u` on a jittered `side × side` grid, in
/// shuffled order.
///
/// The data are skewed (roads and clusters), so the cost of a pool of
/// uniformly random issuers swings with the draw: a thousand of them
/// still move the mean by several percent from seed to seed. One
/// issuer per grid cell covers the space evenly under every seed, and
/// the shuffle keeps neighbouring requests from sharing cache lines.
/// Returns each region with its cell coordinates.
fn grid_issuers(side: usize, u: f64, rng: &mut StdRng) -> Vec<(Rect, usize, usize)> {
    let cell_w = SPACE.width() / side as f64;
    let cell_h = SPACE.height() / side as f64;
    let mut cells: Vec<(Rect, usize, usize)> = Vec::with_capacity(side * side);
    for gy in 0..side {
        for gx in 0..side {
            let c = Point::new(
                SPACE.min.x + (gx as f64 + rng.gen_range(0.0..1.0)) * cell_w,
                SPACE.min.y + (gy as f64 + rng.gen_range(0.0..1.0)) * cell_h,
            );
            cells.push((Rect::centered(c, u, u), gx, gy));
        }
    }
    for k in (1..cells.len()).rev() {
        cells.swap(k, rng.gen_range(0..=k));
    }
    cells
}

fn request(spec: &Spec, region: Rect, gx: usize, gy: usize) -> Request {
    let issuer = Issuer::uniform(region);
    let range = RangeSpec::square(spec.w);
    let cipq = |qp| PointRequest::cipq(issuer.clone(), range, qp, CipqStrategy::PExpanded);
    match spec.mix {
        Mix::Cipq(qp) => Request::Point(cipq(qp)),
        Mix::Ipq => Request::Point(PointRequest::ipq(issuer, range)),
        Mix::Iuq => Request::Uncertain(UncertainRequest::iuq(issuer, range)),
        // Each kind sits on its own regular sub-lattice of the grid,
        // so each still covers the space evenly.
        Mix::Mixed => match (gx + 2 * gy) % 4 {
            0 | 1 => Request::Point(PointRequest::ipq(issuer, range)),
            2 => Request::Point(cipq(0.3)),
            _ => Request::Uncertain(UncertainRequest::iuq(issuer, range)),
        },
    }
}

impl Inputs {
    /// `cycles` is how many write cycles the run can send at most.
    pub fn generate(
        spec: &Spec,
        scale: Scale,
        seed: u64,
        points: &[PointObject],
        cycles: usize,
    ) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_6f6c);
        let pool = grid_issuers(scale.pool_side, spec.u, &mut rng)
            .into_iter()
            .map(|(region, gx, gy)| request(spec, region, gx, gy))
            .collect();

        let sub_side = (spec.subs as f64).sqrt().ceil() as usize;
        let subs = grid_issuers(sub_side, SUB_U, &mut rng)
            .into_iter()
            .take(spec.subs)
            .map(|(region, _, _)| {
                PointRequest::cipq(
                    Issuer::uniform(region),
                    RangeSpec::square(500.0),
                    0.3,
                    CipqStrategy::PExpanded,
                )
            })
            .collect();

        let base: Vec<Point> = points.iter().map(|o| o.loc).collect();
        let mut updates = PointUpdateGen::from_base(&base, seed + 2, UpdateMix::balanced());
        let batches = (0..cycles)
            .map(|_| {
                updates
                    .stream(spec.write_batch)
                    .into_iter()
                    .map(|u| {
                        WireUpdate::Point(match u {
                            PointUpdate::Arrive { id, loc } => {
                                Update::Arrive(PointObject::new(id, loc))
                            }
                            PointUpdate::Depart { id } => Update::Depart(id.into()),
                            PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
                        })
                    })
                    .collect()
            })
            .collect();
        Inputs {
            pool,
            batches,
            subs,
        }
    }
}
