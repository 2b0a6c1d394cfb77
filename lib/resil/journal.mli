(** Versioned, checksummed on-disk journal of completed grid cells —
    the checkpoint behind [crisp_sim experiments --resume].

    {2 Format}

    A text file: a header line [crisp-journal VERSION SIG] (where SIG is
    the digest of the caller's signature string — format version, grid
    sizes, anything that must match for old entries to be reusable),
    then one line per entry: [KEY DIGEST HEX-PAYLOAD], where DIGEST is
    the MD5 of [SIG ^ payload] (not of the hex encoding), so an entry is
    only ever valid under the signature it was recorded for.  Re-recording
    a key appends a new line; the {e last} valid line for a key wins on
    load.

    {2 Trust policy}

    Nothing read from disk is trusted:
    - a header mismatch (foreign file, older version, different sizes)
      quarantines the {e whole file} to [PATH.bad] and starts empty;
    - an entry that fails to parse, to hex-decode, or whose digest does
      not match its payload-under-this-signature is appended to
      [PATH.bad] and dropped — the cell is simply recomputed;
    - every quarantine is recorded in {!Log} so the run reports it.

    {2 Atomicity and concurrency}

    {!load} materialises the header; {!record} appends one entry line
    with a single [write(2)] on an [O_APPEND] descriptor.  A SIGKILL at
    any instant can only leave a torn {e tail} line, which the checksum
    quarantine drops on the next load (one cell recomputed, the rest
    kept).  Appends are serialised process-wide, so several named
    journals can live in one process — the farm daemon's server-state
    journal next to per-grid cell journals — and even two journals
    accidentally opened on the {e same} path interleave whole lines
    rather than clobbering each other's entries (each load then trusts
    only the lines recorded under its own signature).

    Fault-injection sites: ["journal.write"] mangles the payload bytes
    written for an entry (the digest is computed on the true payload
    first, so corruption is {e detectable} on the next load);
    ["journal.read"] mangles payload bytes as they are read.  Both are
    inert when no plan is armed. *)

type t

val load : path:string -> signature:string -> t
(** Open (or create the in-memory image of) the journal at [path].  A
    missing file is an empty journal; an unreadable, stale or corrupt
    one is quarantined as described above. *)

val in_dir : dir:string -> name:string -> signature:string -> t
(** [in_dir ~dir ~name ~signature] opens the named journal
    [DIR/NAME.journal] (creating [DIR] as needed; [name] is sanitised to
    a filesystem-safe slug).  This is how a process holds several
    journals side by side — e.g. the [crisp_sim serve] daemon's ["server"]
    state journal next to its ["cells"] checkpoint journal.
    @raise Invalid_argument on an empty [name]. *)

val path : t -> string

val find : t -> string -> string option
(** The validated payload recorded for a key, if any. *)

val record : t -> key:string -> payload:string -> unit
(** Insert (or replace) an entry and append it to the file in one write.
    Whitespace in [key] is replaced by ['_'].
    @raise Fault_plan.Injected when an armed [Throw] trigger fires at
    the ["journal.write"] site (callers treat a failed checkpoint as a
    quarantine, not a fatal error). *)

val size : t -> int
(** Validated entries currently held. *)

val quarantined : t -> int
(** Entries (or whole files) quarantined while loading this journal. *)
