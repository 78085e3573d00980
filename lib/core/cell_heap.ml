module SS = Sample_space
module FA = Float.Array

(* Slot [i] holds cell [cells.(i)], whose cached max and uid are copied
   into [depth.(i)] and [uid.(i)]: the sifts compare two flat columns
   and never read the space. Cells are ints, so the heap holds no
   pointer. Every move also rewrites the moved cell's slot, which lives
   in a column of the cell's grid. The helpers take slot indices, never
   a float, since a float argument of a call is boxed. *)
type t = {
  space : SS.t;
  mutable cells : SS.cell array;
  mutable depth : floatarray;
  mutable uid : int array;
  mutable len : int;
}

let create space =
  { space; cells = [||]; depth = FA.create 0; uid = [||]; len = 0 }

let length h = h.len
let top h = if h.len = 0 then None else Some (Array.unsafe_get h.cells 0)

let cell_at h i =
  if i < h.len then h.cells.(i) else invalid_arg "Cell_heap.cell_at"

let precedes = SS.precedes

(* Slot [i] comes before slot [j]. *)
let above h i j =
  let di = FA.unsafe_get h.depth i and dj = FA.unsafe_get h.depth j in
  di > dj || (di = dj && Array.unsafe_get h.uid i < Array.unsafe_get h.uid j)

let swap h i j =
  let ci = h.cells.(i) and cj = h.cells.(j) in
  h.cells.(i) <- cj;
  h.cells.(j) <- ci;
  let d = FA.unsafe_get h.depth i in
  FA.unsafe_set h.depth i (FA.unsafe_get h.depth j);
  FA.unsafe_set h.depth j d;
  let u = h.uid.(i) in
  h.uid.(i) <- h.uid.(j);
  h.uid.(j) <- u;
  SS.set_cell_slot h.space cj i;
  SS.set_cell_slot h.space ci j

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if above h i p then begin
      swap h i p;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  if l < h.len then begin
    let c = if l + 1 < h.len && above h (l + 1) l then l + 1 else l in
    if above h c i then begin
      swap h i c;
      sift_down h c
    end
  end

(* Restore the order around slot [i] after its key changed: at most one
   of the two directions moves it. *)
let reseat h i =
  if i > 0 && above h i ((i - 1) / 2) then sift_up h i else sift_down h i

(* Room for one more slot. *)
let grow h c =
  let cap = Array.length h.cells in
  if h.len = cap then begin
    let ncap = Int.max 16 (2 * cap) in
    let cells = Array.make ncap c in
    Array.blit h.cells 0 cells 0 h.len;
    let depth = FA.create ncap in
    FA.blit h.depth 0 depth 0 h.len;
    let uid = Array.make ncap 0 in
    Array.blit h.uid 0 uid 0 h.len;
    h.cells <- cells;
    h.depth <- depth;
    h.uid <- uid
  end

(* Move the last slot into the hole at [i]. *)
let remove h i =
  SS.set_cell_slot h.space h.cells.(i) (-1);
  let last = h.len - 1 in
  h.len <- last;
  if i < last then begin
    let c = h.cells.(last) in
    h.cells.(i) <- c;
    FA.unsafe_set h.depth i (FA.unsafe_get h.depth last);
    h.uid.(i) <- h.uid.(last);
    SS.set_cell_slot h.space c i;
    reseat h i
  end

(* The cell's new max is staged in its own slot, or in the first free
   one when it has none, so it is read as an unboxed float. *)
let update h c =
  let i = SS.cell_slot h.space c in
  grow h c;
  let j = if i >= 0 then i else h.len in
  SS.cell_max_into h.space c h.depth j;
  if FA.unsafe_get h.depth j > 0. then
    if i >= 0 then reseat h i
    else begin
      h.len <- j + 1;
      h.cells.(j) <- c;
      h.uid.(j) <- SS.cell_uid h.space c;
      SS.set_cell_slot h.space c j;
      sift_up h j
    end
  else if i >= 0 then remove h i
