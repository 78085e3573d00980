(* Flat unboxed float64 columns backed by Bigarray.

   [floatarray] already stores unboxed floats, but it lives on the OCaml
   heap: every column the GC scans during a major slice, every column
   counted against the heap budget, and snapshotting one means walking
   it element by element. A C-layout [Bigarray.Array1] column is
   GC-invisible (one custom block, data in malloc'd memory), safely
   shareable across domains, and its bytes can be copied wholesale —
   the durable layer serializes a column as one contiguous byte run.

   Access compiles to the same unboxed load/store as [floatarray]
   ([%caml_ba_unsafe_ref_1] on float64/c_layout), so hot kernels pay
   nothing for the switch. Creation is costlier than a minor-heap
   allocation (malloc + custom block), so long-lived, solver-sized
   columns live here while small per-cell scratch stays [floatarray]. *)

module BA1 = Bigarray.Array1

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t

let create n : t = BA1.create Bigarray.float64 Bigarray.c_layout n

let make n v =
  let a = create n in
  BA1.fill a v;
  a

(* Accessors must be [external] re-exports of the compiler primitives,
   not wrapper functions: the non-flambda backend does not inline
   cross-module wrappers, and a real call both costs the jump and boxes
   the float result/argument — per element, in every hot loop. As
   primitives they compile to the same unboxed load/store as
   [floatarray] access. *)
external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fill (a : t) v = BA1.fill a v

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  BA1.blit (BA1.sub src src_pos len) (BA1.sub dst dst_pos len)

let init n f =
  let a = create n in
  for i = 0 to n - 1 do
    unsafe_set a i (f i)
  done;
  a
