(* Spans around calls into the pipeline's layers, recorded from the
   benchmark's side of the library boundary.

   A span has a name (the layer), the span that was open when it
   started, wall-clock start and end, and the minor/major words the
   process allocated in between.  Spans stay in memory until the run
   ends.  A layer's self time is its spans' durations minus what their
   child spans cover; allocation is attributed the same way.  Counts
   of work done ([count]) are kept beside the spans.

   With tracing off, [with_] is a flag test and a call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start : float;
  stop : float;
  minor : float;
  major : float;
}

let enabled = ref false
let next_id = ref 0
let open_stack = ref []
let closed = ref []
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let minor0, _, major0 = Gc.counters () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let minor1, _, major1 = Gc.counters () in
      open_stack := List.tl !open_stack;
      closed :=
        {
          id;
          name;
          parent;
          start;
          stop;
          minor = minor1 -. minor0;
          major = major1 -. major0;
        }
        :: !closed
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let count name n =
  if !enabled then
    Hashtbl.replace counts name
      (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

(* Spans closed since [mark] was taken. *)
let mark () = !next_id
let since m = List.filter (fun s -> s.id >= m) !closed

type self = { seconds : float; minor_words : float; major_words : float }

(* Self cost per layer name over [spans]. *)
let self_by_layer spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d, mi, ma =
          Option.value ~default:(0., 0., 0.)
            (Hashtbl.find_opt children s.parent)
        in
        Hashtbl.replace children s.parent
          (d +. (s.stop -. s.start), mi +. s.minor, ma +. s.major))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let cd, cmi, cma =
        Option.value ~default:(0., 0., 0.) (Hashtbl.find_opt children s.id)
      in
      let acc =
        Option.value
          ~default:{ seconds = 0.; minor_words = 0.; major_words = 0. }
          (Hashtbl.find_opt by_layer s.name)
      in
      Hashtbl.replace by_layer s.name
        {
          seconds = acc.seconds +. (s.stop -. s.start -. cd);
          minor_words = acc.minor_words +. (s.minor -. cmi);
          major_words = acc.major_words +. (s.major -. cma);
        })
    spans;
  fun name ->
    Option.value
      ~default:{ seconds = 0.; minor_words = 0.; major_words = 0. }
      (Hashtbl.find_opt by_layer name)

let to_json () =
  let module J = Ctam_util.Json in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("parent", J.Int s.parent);
             ("start", J.Float s.start);
             ("end", J.Float s.stop);
             ("minor_words", J.Float s.minor);
             ("major_words", J.Float s.major);
           ])
       !closed)
