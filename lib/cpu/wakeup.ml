(* Intrusive wakeup lists: who to wake when a ROB entry completes.

   Replaces the per-entry [dependents : int list].  Each ROB slot owns a
   list head; list cells live in a flat [next] array, one cell per
   (consumer, link) edge where [link] indexes the consumer's producer
   operands (src1, src2, store-to-load forward — at most
   [links_per_node]).  A consumer can therefore sit on up to three
   producers' lists at once without any cell ever being allocated. *)

let links_per_node = 3

type t = {
  head : int array;  (* per producer slot: first edge id, -1 = empty *)
  next : int array;  (* per edge id: next edge id on the same list *)
}

let create n =
  { head = Array.make n (-1); next = Array.make (n * links_per_node) (-1) }


let push t ~producer ~consumer ~link =
  if link < 0 || link >= links_per_node then invalid_arg "Wakeup.push: bad link";
  let edge = (consumer * links_per_node) + link in
  t.next.(edge) <- t.head.(producer);
  t.head.(producer) <- edge

let pop t producer =
  let edge = t.head.(producer) in
  if edge = -1 then -1
  else begin
    t.head.(producer) <- t.next.(edge);
    t.next.(edge) <- -1;
    edge / links_per_node
  end

let reset t producer = t.head.(producer) <- -1

let is_empty t producer = t.head.(producer) = -1
