(** Lightweight write-once futures for the domain pool.

    A future is resolved exactly once, either with a value ({!fulfill}) or
    with an exception and its backtrace ({!fail}).  {!await} blocks the
    calling domain on a condition variable until resolution and re-raises a
    failure with its original backtrace, so exceptions thrown inside a
    worker domain surface at the await site rather than being swallowed. *)

type 'a t

val create : unit -> 'a t
(** A fresh pending future. *)

val of_value : 'a -> 'a t
(** An already-fulfilled future (used by the sequential escape hatch). *)

val fulfill : 'a t -> 'a -> unit
(** Resolve with a value.  @raise Invalid_argument if already resolved. *)

val fail : 'a t -> exn -> Printexc.raw_backtrace -> unit
(** Resolve with an exception.  @raise Invalid_argument if already
    resolved. *)

val await : 'a t -> 'a
(** Block until resolved; return the value or re-raise the failure. *)

val poll : 'a t -> ('a, exn) result option
(** [None] while pending; never blocks. *)
