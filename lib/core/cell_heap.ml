module SS = Sample_space
module FA = Float.Array

(* Slot [i] holds [cells.(i)], whose cached max and uid are copied into
   [depth.(i)] and [uid.(i)]: the sifts compare two flat columns and
   never follow a cell pointer. Every move also rewrites the moved
   cell's own slot index. The helpers take slot indices, never a float,
   since a float argument of a call is boxed. *)
type t = {
  mutable cells : SS.cell array;
  mutable depth : floatarray;
  mutable uid : int array;
  mutable len : int;
}

let create () = { cells = [||]; depth = FA.create 0; uid = [||]; len = 0 }
let length h = h.len
let top h = if h.len = 0 then None else Some (Array.unsafe_get h.cells 0)

let cell_at h i =
  if i < h.len then h.cells.(i) else invalid_arg "Cell_heap.cell_at"

(* The cached max, read from the trailing slot of the cell's column. *)
let max_of c =
  let col = SS.cell_max_column c in
  FA.unsafe_get col (FA.length col - 1)

let precedes a b =
  let da = max_of a and db = max_of b in
  da > db || (da = db && SS.cell_uid a < SS.cell_uid b)

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
  SS.set_cell_slot cj i;
  SS.set_cell_slot ci j

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

(* Move the last slot into the hole at [i]. The vacated slot is pointed
   at the top (or the emptied heap drops its cells), so the heap keeps
   no removed cell alive. *)
let remove h i =
  SS.set_cell_slot h.cells.(i) (-1);
  let last = h.len - 1 in
  h.len <- last;
  if i < last then begin
    let c = h.cells.(last) in
    h.cells.(i) <- c;
    FA.unsafe_set h.depth i (FA.unsafe_get h.depth last);
    h.uid.(i) <- h.uid.(last);
    SS.set_cell_slot c i;
    reseat h i
  end;
  if last > 0 then h.cells.(last) <- h.cells.(0) else h.cells <- [||]

let update h c =
  (* [max_of] inlined by hand: its float result would be boxed. *)
  let col = SS.cell_max_column c in
  let d = FA.unsafe_get col (FA.length col - 1) in
  let i = SS.cell_slot c in
  if d > 0. then
    if i >= 0 then begin
      FA.unsafe_set h.depth i d;
      reseat h i
    end
    else begin
      grow h c;
      let i = h.len in
      h.len <- i + 1;
      h.cells.(i) <- c;
      FA.unsafe_set h.depth i d;
      h.uid.(i) <- SS.cell_uid c;
      SS.set_cell_slot c i;
      sift_up h i
    end
  else if i >= 0 then remove h i
