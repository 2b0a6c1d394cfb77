let page_shift = 6

let page_words = 1 lsl page_shift

(* A directory spans at most this many pages (128 MiB of address
   space); a store farther out goes to the side table. *)
let max_pages = 1 lsl 18

(* Every absent directory slot points here.  It is never owned, so a
   store to it copies it first. *)
let empty_page = Array.make page_words 0

type t = {
  mutable base : int;  (* page number of dir.(0) *)
  mutable dir : int array array;
  mutable owned : Bytes.t;  (* non-zero where dir.(i) is this image's own page *)
  side : (int, int) Hashtbl.t;
  mutable lo : int;
  mutable hi : int;
}

let create () =
  { base = 0; dir = [||]; owned = Bytes.empty; side = Hashtbl.create 8; lo = max_int;
    hi = min_int }

(* Non-negative and 8-aligned: neither the sign bit nor a low bit set. *)
let paged addr = addr land (min_int lor 7) = 0

let side_get t addr = match Hashtbl.find_opt t.side addr with Some v -> v | None -> 0

let get t addr =
  if paged addr then begin
    let w = addr lsr 3 in
    let i = (w lsr page_shift) - t.base in
    if i >= 0 && i < Array.length t.dir then
      Array.unsafe_get (Array.unsafe_get t.dir i) (w land (page_words - 1))
    else side_get t addr
  end
  else side_get t addr

(* Widen the directory to cover [page], at least doubling it; [false]
   when the span would pass [max_pages].  Since the directory only
   grows, a page refused once is refused forever, so an address never
   moves between the side table and the pages. *)
let cover t page =
  let len = Array.length t.dir in
  let lo = if len = 0 then page else min t.base page in
  let hi = if len = 0 then page + 1 else max (t.base + len) (page + 1) in
  hi - lo <= max_pages
  && begin
    let want = min max_pages (max (hi - lo) (max 16 (2 * len))) in
    let base = if len > 0 && page < t.base then max 0 (hi - want) else lo in
    let dir = Array.make want empty_page and owned = Bytes.make want '\000' in
    if len > 0 then begin
      Array.blit t.dir 0 dir (t.base - base) len;
      Bytes.blit t.owned 0 owned (t.base - base) len
    end;
    t.base <- base;
    t.dir <- dir;
    t.owned <- owned;
    true
  end

let rec set_paged t addr v =
  let w = addr lsr 3 in
  let i = (w lsr page_shift) - t.base in
  if i >= 0 && i < Array.length t.dir then begin
    let page =
      if Bytes.unsafe_get t.owned i <> '\000' then Array.unsafe_get t.dir i
      else begin
        let p = Array.copy t.dir.(i) in
        t.dir.(i) <- p;
        Bytes.unsafe_set t.owned i '\001';
        p
      end
    in
    Array.unsafe_set page (w land (page_words - 1)) v
  end
  else if cover t (w lsr page_shift) then set_paged t addr v
  else Hashtbl.replace t.side addr v

let set t addr v =
  if addr < t.lo then t.lo <- addr;
  if addr + 8 > t.hi then t.hi <- addr + 8;
  if paged addr then set_paged t addr v else Hashtbl.replace t.side addr v

(* A store at [max_int] leaves [hi] at [min_int + 7], so the initial
   pair means nothing was stored. *)
let bounds t = if t.lo = max_int && t.hi = min_int then None else Some (t.lo, t.hi)

let copy_on_write t =
  (* From here on both sides share every page, so neither owns one. *)
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000';
  { t with
    dir = Array.copy t.dir;
    owned = Bytes.make (Bytes.length t.owned) '\000';
    side = Hashtbl.copy t.side }
