(* A sorted prefix [starts.(0 .. len - 1)] of a growable array. *)
type t = { mutable starts : int array; mutable len : int }

let create () = { starts = [||]; len = 0 }

(* The first index whose start is > [x], in [0, len]. *)
let upper_bound t x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.starts.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  go 0 t.len

let add t s =
  if t.len = Array.length t.starts then begin
    let grown = Array.make (max 4 (2 * t.len)) 0 in
    Array.blit t.starts 0 grown 0 t.len;
    t.starts <- grown
  end;
  let k = upper_bound t s in
  Array.blit t.starts k t.starts (k + 1) (t.len - k);
  t.starts.(k) <- s;
  t.len <- t.len + 1

let remove t s =
  let k = upper_bound t s - 1 in
  if k < 0 || t.starts.(k) <> s then raise Not_found;
  Array.blit t.starts (k + 1) t.starts k (t.len - k - 1);
  t.len <- t.len - 1

let to_list t = Array.to_list (Array.sub t.starts 0 t.len)

(* Both searches jump past each start they clash with: every probe between
   the current one and the jump target overlaps that start, so no free
   slot is skipped. A start clashes with probe [s] when it lies strictly
   within [d] cycles of it; one binary search finds the first candidate,
   and the walk goes on in sorted order from there. *)
let earliest t ~d ~lo ~hi =
  let rec walk s k =
    if s > hi then None
    else if k < t.len && t.starts.(k) < s + d then
      walk (t.starts.(k) + d) (k + 1)
    else Some s
  in
  walk lo (upper_bound t (lo - d))

let latest t ~d ~lo ~hi =
  let rec walk s k =
    if s < lo then None
    else if k >= 0 && t.starts.(k) > s - d then walk (t.starts.(k) - d) (k - 1)
    else Some s
  in
  walk hi (upper_bound t (hi + d - 1) - 1)

let spaced t ~d =
  let rec go k =
    k >= t.len || (t.starts.(k - 1) + d <= t.starts.(k) && go (k + 1))
  in
  go 1
