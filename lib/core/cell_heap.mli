(** An intrusive indexed max-heap over {!Sample_space} cells: the
    dynamic structure's index of its deepest cell.

    It holds one slot per live cell whose cached max is positive (a cell
    that witnesses no ball is never a best placement). The order is the
    cached max descending, then the cell uid ascending — a strict total
    order, since uids are unique across all grids, so the top is a
    function of the cells alone, never of the heap's layout or of the
    order the cells came in. Each cell records its own slot
    ({!Sample_space.cell_slot}, a column of the cell's grid), and the
    cell, max and uid of every slot sit in flat columns, so re-seating a
    cell after its max moved is a sift in place that allocates nothing
    and follows no pointer. *)

type t

val create : Sample_space.t -> t
(** An empty heap over the cells of that space. *)

val length : t -> int

val update : t -> Sample_space.cell -> unit
(** Re-seat a cell after its cached max changed — the body of a
    {!Sample_space.on_cell_change} hook. The cell enters the heap when
    its max turns positive, moves up or down while it stays positive,
    and leaves once its max is 0 or below (or [neg_infinity]: the cell
    was dropped). O(log length). *)

val top : t -> Sample_space.cell option
(** The first cell in the order. O(1). *)

val precedes : Sample_space.t -> Sample_space.cell -> Sample_space.cell -> bool
(** The heap's order ({!Sample_space.precedes}): [precedes space a b]
    when [a]'s cached max is greater, or equal with a smaller uid.
    Merging the tops of heaps over disjoint cells under it gives the top
    of one heap over them all. *)

val cell_at : t -> int -> Sample_space.cell
(** Test support: the cell in slot [i] ([0 <= i < length]). Slot [0] is
    the top and slot [i]'s parent is [(i - 1) / 2]. *)
