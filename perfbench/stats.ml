let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { pct : float; value : float; beyond : int; n : int }

let tail xs =
  let n = List.length xs in
  if n < 20 then None
  else
    let a = Array.of_list xs in
    Array.sort compare a;
    let r = n - 10 in
    Some
      {
        pct = 100. *. float_of_int r /. float_of_int n;
        value = a.(r - 1);
        beyond = 10;
        n;
      }

type span = { name : string; start : float; dur : float; depth : int }

(* Parent of every span (index, or -1 for a root): sweep in start order,
   parents before children on a tie, with a stack of open spans. *)
let parents spans =
  let a = Array.of_list spans in
  let order = Array.init (Array.length a) Fun.id in
  Array.stable_sort
    (fun i j ->
      match compare a.(i).start a.(j).start with
      | 0 -> compare a.(i).depth a.(j).depth
      | c -> c)
    order;
  let parent = Array.make (Array.length a) (-1) in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let rec pop = function
        | j :: rest when a.(j).depth >= a.(i).depth -> pop rest
        | s -> s
      in
      stack := pop !stack;
      (match !stack with j :: _ -> parent.(i) <- j | [] -> ());
      stack := i :: !stack)
    order;
  (a, parent)

(* Length of the union of intervals. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e)))
      (0., None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

let self_times spans =
  let a, parent = parents spans in
  let children = Array.make (Array.length a) [] in
  Array.iteri
    (fun i p ->
      if p >= 0 then
        (* Clip to the parent, so a child that overruns it by clock
           jitter cannot drive the parent's self time negative. *)
        let s = Float.max a.(i).start a.(p).start
        and e =
          Float.min (a.(i).start +. a.(i).dur) (a.(p).start +. a.(p).dur)
        in
        if e > s then children.(p) <- (s, e) :: children.(p))
    parent;
  Array.to_list (Array.mapi (fun i s -> s.dur -. covered children.(i)) a)

let attribute ~key spans =
  let a, parent = parents spans in
  let self = Array.of_list (self_times spans) in
  let rec owner i =
    if i < 0 then None
    else match key i with Some k -> Some k | None -> owner parent.(i)
  in
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun i _ ->
      match owner i with
      | Some k ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt totals k) in
          Hashtbl.replace totals k (prev +. self.(i))
      | None -> ())
    a;
  List.sort compare (List.of_seq (Hashtbl.to_seq totals))
