//! The scan every probe runs over a node: select the entries whose key
//! overlaps the probe window, without a branch per entry.
//!
//! Testing each entry with [`Rect::overlaps`] and pushing on a hit is a
//! chain of data-dependent branches, and a server answering a pool of
//! different windows mispredicts them about as often as it takes them.
//! [`Window::select`] instead writes every entry's payload at a write
//! cursor and advances the cursor by the overlap test: a miss is
//! overwritten by the next entry or cut off by the final truncate.
//! Both trees — the R-tree's probe and the PTI's walk — scan through
//! it, leaves and parents alike, so the candidates, their order and
//! every [`AccessStats`](crate::AccessStats) count are those of the
//! branchy loop it replaced.

use iloc_geometry::Rect;

/// A probe window, checked for emptiness once so that the per-entry
/// test is four compares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window(Rect);

impl Window {
    /// An empty `window` becomes [`Rect::EMPTY`], whose `max` is −∞
    /// and `min` +∞, so no finite key passes [`Window::overlaps`].
    pub(crate) fn new(window: Rect) -> Self {
        Window(if window.is_empty() {
            Rect::EMPTY
        } else {
            window
        })
    }

    /// [`Rect::overlaps`] for a finite, non-empty `key` — every stored
    /// key is (`assert_key`), and so is every parent bound, a hull of
    /// them. A NaN window coordinate fails its compares, as it does in
    /// `Rect::overlaps`. `&`, not `&&`: all four compares run.
    #[inline]
    fn overlaps(self, key: Rect) -> bool {
        let w = self.0;
        (key.min.x <= w.max.x)
            & (w.min.x <= key.max.x)
            & (key.min.y <= w.max.y)
            & (w.min.y <= key.max.y)
    }

    /// Appends, in entry order, the payload of every `(key, payload)`
    /// entry whose key overlaps the window to `out`; returns how many.
    ///
    /// `out` grows by the entry count before it is truncated, so it
    /// needs that much spare capacity for the scan to allocate
    /// nothing.
    #[inline]
    pub(crate) fn select<P: Copy>(
        self,
        entries: impl ExactSizeIterator<Item = (Rect, P)> + Clone,
        out: &mut Vec<P>,
    ) -> usize {
        let Some((_, fill)) = entries.clone().next() else {
            return 0;
        };
        let base = out.len();
        out.resize(base + entries.len(), fill);
        let slots = &mut out[base..];
        let mut cursor = 0;
        for (key, payload) in entries {
            slots[cursor] = payload;
            cursor += usize::from(self.overlaps(key));
        }
        out.truncate(base + cursor);
        cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    /// Keys around the unit square: inside, on each edge and corner,
    /// just past each edge, degenerate points and slivers.
    fn keys() -> Vec<Rect> {
        let mut keys = Vec::new();
        for x in [-2.0, -1.0, -1e-9, 0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0] {
            for y in [-2.0, -1.0, -1e-9, 0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0] {
                keys.push(r(x, y, x, y));
                keys.push(r(x - 1.0, y, x, y + 0.25));
                keys.push(r(x, y - 0.5, x + 0.75, y));
            }
        }
        keys
    }

    #[test]
    fn overlaps_is_rect_overlaps_for_stored_keys() {
        let nan = f64::NAN;
        let windows = [
            r(0.0, 0.0, 1.0, 1.0),
            r(0.5, 0.5, 0.5, 0.5),
            r(0.0, 0.0, 0.0, 1.0),
            r(1.0, 0.0, 0.0, 1.0),
            r(0.0, 1.0, 1.0, 0.0),
            r(nan, 0.0, 1.0, 1.0),
            r(0.0, 0.0, 1.0, nan),
            r(nan, nan, nan, nan),
            r(f64::NEG_INFINITY, 0.0, f64::INFINITY, 0.5),
            Rect::EMPTY,
        ];
        for window in windows {
            let prepared = Window::new(window);
            for key in keys() {
                assert_eq!(
                    prepared.overlaps(key),
                    key.overlaps(window),
                    "key {key:?} against window {window:?}"
                );
            }
        }
    }

    #[test]
    fn select_keeps_entry_order_and_appends() {
        let window = Window::new(r(0.0, 0.0, 1.0, 1.0));
        let entries: Vec<(Rect, u32)> = keys().into_iter().zip(0..).collect();
        let want: Vec<u32> = entries
            .iter()
            .filter(|(key, _)| key.overlaps(r(0.0, 0.0, 1.0, 1.0)))
            .map(|&(_, item)| item)
            .collect();
        let mut out = vec![7, 8];
        let selected = window.select(entries.iter().copied(), &mut out);
        assert_eq!(selected, want.len());
        assert_eq!(out[..2], [7, 8]);
        assert_eq!(out[2..], want[..]);
        assert_eq!(
            window.select(std::iter::empty::<(Rect, u32)>(), &mut out),
            0
        );
        assert_eq!(out.len(), 2 + want.len());
    }
}
