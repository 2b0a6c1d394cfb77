(** Byte-exact capture of a figure's text, for comparing runs. *)

val stdout : (unit -> unit) -> string
(** Run the thunk with the process's stdout (file descriptor 1, so
    output from every domain and from C stubs) redirected to a temporary
    file, restore it — also when the thunk raises — and return what was
    written. *)
