(** Per-domain scratch lent to one user at a time.

    The one lending rule for the kernels' reusable scratch (sort
    columns, sweep event buffers, per-cell work columns). A
    [Domain.DLS] slot is per domain, and the systhreads of a domain
    share it, so each slot carries an atomic busy flag: the first user
    gets the slot's scratch, and a user that finds it lent out works on
    fresh scratch. Scratch must be given back by the user that took it
    and must not outlive the lending. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make create] is a lending slot per domain; [create] builds its
    scratch on first use, and fresh scratch when the slot is lent. *)

val take : 'a t -> 'a
(** This domain's scratch, marked lent, or fresh scratch while it is
    lent. Allocates nothing once the domain's slot exists. *)

val give : 'a t -> 'a -> unit
(** Return scratch from {!take}. Fresh scratch is dropped. *)

val with_ : 'a t -> ('a -> 'b) -> 'b
(** [with_ t f] is [f] on lent scratch, given back when [f] returns or
    raises. *)
