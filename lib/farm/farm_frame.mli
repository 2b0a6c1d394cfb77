(** Length-prefixed framing for the simulation-farm wire protocol.

    A frame is a 4-byte big-endian payload length followed by the payload
    bytes (JSON text at the layer above).  The framing layer enforces a
    hard payload cap and fails {e loudly} on anything malformed — a
    truncated stream, an oversized or negative declared length — instead
    of resynchronising: a framing error means the peer is confused and
    the connection must die.

    Frames move over raw file descriptors ({!read_fd}/{!write_fd}) with
    {e per-frame deadlines} — the hostile-traffic surface the daemon
    serves.  A slowloris peer trickling one byte per second, or a dead
    reader that never drains its socket, trips the deadline instead of
    pinning a handler thread forever. *)

exception Frame_error of string

exception Io_timeout of string
(** A deadline-guarded write could not hand its bytes to the peer in
    time ({!write_fd}/{!write_raw_fd} only — reads report timeouts as
    {!read_result} variants). *)

val max_frame_bytes : int
(** Hard cap on a single payload (1 MiB) — the one constant both the
    encoder and the decoder enforce, on both the client and the server
    side of the wire.  Declared lengths above it (or below zero) raise
    {!Frame_error} — a four-byte header can otherwise ask the reader to
    allocate gigabytes — and oversize {e outgoing} payloads are rejected
    just as loudly before a single byte is written. *)

val encode : string -> string
(** The on-wire bytes of one frame.
    @raise Frame_error if the payload exceeds {!max_frame_bytes}. *)

val decode : string -> pos:int -> (string * int) option
(** [decode buf ~pos] parses one frame starting at [pos]: [Some (payload,
    next_pos)], or [None] if the buffer holds only an incomplete prefix
    (read more and retry).
    @raise Frame_error on an oversized or negative declared length. *)

(** {2 Deadline-guarded descriptor I/O}

    These work on blocking or non-blocking descriptors (EAGAIN is
    folded into the select loop) and poll in short slices, so an
    installed [poll] callback is observed within ~50ms even while a
    connection is silent. *)

type read_result =
  [ `Frame of string  (** one complete frame *)
  | `Eof  (** the peer closed cleanly at a frame boundary *)
  | `Idle_timeout  (** no frame {e started} within [idle_timeout] *)
  | `Timeout
    (** a frame started but did not {e complete} within [io_timeout] —
        the slowloris signature *)
  | `Abort  (** [poll] returned [true] while waiting between frames *) ]

val read_fd :
  ?idle_timeout:float ->
  ?io_timeout:float ->
  ?poll:(unit -> bool) ->
  Unix.file_descr ->
  read_result
(** Read exactly one frame from [fd].  [idle_timeout] bounds the wait
    for the frame's {e first} byte; from that byte on, the whole frame
    (header and payload) must arrive within [io_timeout] — per-byte
    trickling does not reset the clock.  [poll] is consulted only while
    no frame is in progress (between frames a connection can be
    reaped/drained; mid-frame it is read to completion or timed out).
    Omitted deadlines wait forever.
    @raise Frame_error on a torn frame, a reset mid-frame or a bad
    declared length. *)

val write_fd : ?io_timeout:float -> Unix.file_descr -> string -> unit
(** Write one frame.  The whole frame must be accepted by the kernel
    within [io_timeout] (omitted = wait forever) — a peer that stops
    draining its socket trips {!Io_timeout} instead of blocking the
    writer indefinitely.
    @raise Frame_error on an oversize payload (before any bytes are
    written).
    @raise Io_timeout when the deadline expires mid-frame. *)

val write_raw_fd : ?io_timeout:float -> Unix.file_descr -> string -> unit
(** {!write_fd} without the framing: write the given bytes verbatim
    under the same deadline discipline.  This is the chaos proxy's
    escape hatch for emitting deliberately damaged frames (truncated
    payloads, corrupt length prefixes); servers and clients should use
    {!write_fd}. *)
