type component = {
  c_name : string;
  c_master : string;
  c_x : int;
  c_y : int;
  c_orient : Geom.Orient.t;
}

type io_pin = {
  p_name : string;
  p_net : string;
  p_dir : string;
  p_x : int;
  p_y : int;
  p_orient : Geom.Orient.t;
}

type net = {
  n_name : string;
  n_pins : (string * string) list;
  n_is_clock : bool;
}

type row = {
  r_name : string;
  r_site : string;
  r_x : int;
  r_y : int;
  r_orient : Geom.Orient.t;
  r_count : int;
  r_step : int;
}

type axis = X | Y

type tracks = {
  t_axis : axis;
  t_start : int;
  t_count : int;
  t_step : int;
  t_layer : string;
}

type t = {
  design : string;
  dbu : int;
  die : Geom.Rect.t;
  rows : row list;
  tracks : tracks list;
  components : component array;
  io_pins : io_pin list;
  nets : net array;
}

(* --- emission -------------------------------------------------------- *)

let axis_string = function X -> "X" | Y -> "Y"

let emit (d : t) =
  let buf = Buffer.create (1 lsl 16) in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "VERSION 5.8 ;\n";
  addf "DESIGN %s ;\n" d.design;
  addf "UNITS DISTANCE MICRONS %d ;\n" d.dbu;
  addf "DIEAREA ( %d %d ) ( %d %d ) ;\n" d.die.Geom.Rect.lx d.die.ly d.die.hx
    d.die.hy;
  List.iter
    (fun r ->
      addf "ROW %s %s %d %d %s DO %d BY 1 STEP %d 0 ;\n" r.r_name r.r_site
        r.r_x r.r_y
        (Geom.Orient.to_string r.r_orient)
        r.r_count r.r_step)
    d.rows;
  List.iter
    (fun t ->
      addf "TRACKS %s %d DO %d STEP %d LAYER %s ;\n" (axis_string t.t_axis)
        t.t_start t.t_count t.t_step t.t_layer)
    d.tracks;
  addf "COMPONENTS %d ;\n" (Array.length d.components);
  Array.iter
    (fun c ->
      addf "- %s %s + PLACED ( %d %d ) %s ;\n" c.c_name c.c_master c.c_x c.c_y
        (Geom.Orient.to_string c.c_orient))
    d.components;
  addf "END COMPONENTS\n";
  addf "PINS %d ;\n" (List.length d.io_pins);
  List.iter
    (fun p ->
      addf "- %s + NET %s + DIRECTION %s + PLACED ( %d %d ) %s ;\n" p.p_name
        p.p_net p.p_dir p.p_x p.p_y
        (Geom.Orient.to_string p.p_orient))
    d.io_pins;
  addf "END PINS\n";
  addf "NETS %d ;\n" (Array.length d.nets);
  Array.iter
    (fun n ->
      addf "- %s" n.n_name;
      List.iter (fun (inst, pin) -> addf " ( %s %s )" inst pin) n.n_pins;
      addf " + USE %s ;\n" (if n.n_is_clock then "CLOCK" else "SIGNAL"))
    d.nets;
  addf "END NETS\n";
  addf "END DESIGN\n";
  Buffer.contents buf

(* --- parsing --------------------------------------------------------- *)

exception E of Lex.error

let err_at (tok : Lex.token) ~expected =
  raise
    (E
       {
         Lex.e_line = tok.Lex.line;
         e_col = tok.Lex.col;
         expected;
         got = Printf.sprintf "%S" tok.Lex.text;
       })

let tok lx ~expected =
  match Lex.next lx with
  | Some t -> t
  | None ->
    let line, col = Lex.pos_after lx in
    raise (E { Lex.e_line = line; e_col = col; expected; got = "end of input" })

let expect lx kw =
  let t = tok lx ~expected:(Printf.sprintf "%S" kw) in
  if not (String.equal t.Lex.text kw) then
    err_at t ~expected:(Printf.sprintf "%S" kw)

let word lx ~expected = (tok lx ~expected).Lex.text

let int_tok lx ~expected =
  let t = tok lx ~expected in
  match int_of_string_opt t.Lex.text with
  | Some n -> n
  | None -> err_at t ~expected

let orient_tok lx =
  let expected = "an orientation (N|FN|S|FS)" in
  let t = tok lx ~expected in
  match t.Lex.text with
  | "N" -> Geom.Orient.N
  | "FN" -> Geom.Orient.FN
  | "S" -> Geom.Orient.S
  | "FS" -> Geom.Orient.FS
  | _ -> err_at t ~expected

let point lx =
  expect lx "(";
  let x = int_tok lx ~expected:"an integer x coordinate" in
  let y = int_tok lx ~expected:"an integer y coordinate" in
  expect lx ")";
  (x, y)

(* [- name master + PLACED ( x y ) orient ;] — "-" already consumed. *)
let component_entry lx =
  let c_name = word lx ~expected:"a component name" in
  let c_master = word lx ~expected:"a master name" in
  expect lx "+";
  let placed = tok lx ~expected:"\"PLACED\" or \"FIXED\"" in
  (match placed.Lex.text with
  | "PLACED" | "FIXED" -> ()
  | _ -> err_at placed ~expected:"\"PLACED\" or \"FIXED\"");
  let c_x, c_y = point lx in
  let c_orient = orient_tok lx in
  expect lx ";";
  { c_name; c_master; c_x; c_y; c_orient }

(* [- name + NET net + DIRECTION dir + PLACED ( x y ) orient ;] *)
let pin_entry lx =
  let p_name = word lx ~expected:"a pin name" in
  expect lx "+";
  expect lx "NET";
  let p_net = word lx ~expected:"a net name" in
  expect lx "+";
  expect lx "DIRECTION";
  let dir = tok lx ~expected:"a direction (INPUT|OUTPUT|INOUT)" in
  (match dir.Lex.text with
  | "INPUT" | "OUTPUT" | "INOUT" -> ()
  | _ -> err_at dir ~expected:"a direction (INPUT|OUTPUT|INOUT)");
  expect lx "+";
  expect lx "PLACED";
  let p_x, p_y = point lx in
  let p_orient = orient_tok lx in
  expect lx ";";
  { p_name; p_net; p_dir = dir.Lex.text; p_x; p_y; p_orient }

(* [- name ( inst pin )* [+ USE SIGNAL|CLOCK] ;] *)
let net_entry lx =
  let n_name = word lx ~expected:"a net name" in
  let rec pins acc =
    match Lex.peek lx with
    | Some { Lex.text = "("; _ } ->
      let inst, pin =
        expect lx "(";
        let inst = word lx ~expected:"an instance name" in
        let pin = word lx ~expected:"a pin name" in
        expect lx ")";
        (inst, pin)
      in
      pins ((inst, pin) :: acc)
    | _ -> List.rev acc
  in
  let n_pins = pins [] in
  let n_is_clock =
    match Lex.peek lx with
    | Some { Lex.text = "+"; _ } ->
      expect lx "+";
      expect lx "USE";
      let u = tok lx ~expected:"\"SIGNAL\" or \"CLOCK\"" in
      (match u.Lex.text with
      | "SIGNAL" -> false
      | "CLOCK" -> true
      | _ -> err_at u ~expected:"\"SIGNAL\" or \"CLOCK\"")
    | _ -> false
  in
  expect lx ";";
  { n_name; n_pins; n_is_clock }

(* [SECTION n ; - entry ... END SECTION], returning the entries and
   checking their number against the declared count (reported at the
   count token's position). *)
let section lx ~name ~entry =
  let count_tok = tok lx ~expected:"an entry count" in
  let declared =
    match int_of_string_opt count_tok.Lex.text with
    | Some n -> n
    | None -> err_at count_tok ~expected:"an entry count"
  in
  expect lx ";";
  let rec entries acc =
    let t = tok lx ~expected:(Printf.sprintf "\"-\" or \"END %s\"" name) in
    match t.Lex.text with
    | "-" -> entries (entry lx :: acc)
    | "END" ->
      expect lx name;
      List.rev acc
    | _ -> err_at t ~expected:(Printf.sprintf "\"-\" or \"END %s\"" name)
  in
  let es = entries [] in
  if List.length es <> declared then
    err_at count_tok
      ~expected:
        (Printf.sprintf "%d %s entries (found %d)" declared
           (String.lowercase_ascii name) (List.length es));
  es

let row_stmt lx =
  let r_name = word lx ~expected:"a row name" in
  let r_site = word lx ~expected:"a site name" in
  let r_x = int_tok lx ~expected:"an integer x coordinate" in
  let r_y = int_tok lx ~expected:"an integer y coordinate" in
  let r_orient = orient_tok lx in
  expect lx "DO";
  let r_count = int_tok lx ~expected:"a site count" in
  expect lx "BY";
  expect lx "1";
  expect lx "STEP";
  let r_step = int_tok lx ~expected:"a site step" in
  expect lx "0";
  expect lx ";";
  { r_name; r_site; r_x; r_y; r_orient; r_count; r_step }

let tracks_stmt lx =
  let axis_tok = tok lx ~expected:"\"X\" or \"Y\"" in
  let t_axis =
    match axis_tok.Lex.text with
    | "X" -> X
    | "Y" -> Y
    | _ -> err_at axis_tok ~expected:"\"X\" or \"Y\""
  in
  let t_start = int_tok lx ~expected:"an integer track origin" in
  expect lx "DO";
  let t_count = int_tok lx ~expected:"a track count" in
  expect lx "STEP";
  let t_step = int_tok lx ~expected:"a track step" in
  expect lx "LAYER";
  let t_layer = word lx ~expected:"a layer name" in
  expect lx ";";
  { t_axis; t_start; t_count; t_step; t_layer }

let parse src =
  let lx = Lex.make src in
  match
    expect lx "VERSION";
    ignore (word lx ~expected:"a version number");
    expect lx ";";
    expect lx "DESIGN";
    let design = word lx ~expected:"a design name" in
    expect lx ";";
    expect lx "UNITS";
    expect lx "DISTANCE";
    expect lx "MICRONS";
    let dbu = int_tok lx ~expected:"an integer DBU-per-micron factor" in
    expect lx ";";
    expect lx "DIEAREA";
    let lx_, ly_ = point lx in
    let hx_, hy_ = point lx in
    expect lx ";";
    let die = Geom.Rect.make ~lx:lx_ ~ly:ly_ ~hx:hx_ ~hy:hy_ in
    (* ROW and TRACKS statements, in any order *)
    let rows = ref [] and tracks = ref [] in
    let rec header () =
      match Lex.peek lx with
      | Some { Lex.text = "ROW"; _ } ->
        ignore (Lex.next lx);
        rows := row_stmt lx :: !rows;
        header ()
      | Some { Lex.text = "TRACKS"; _ } ->
        ignore (Lex.next lx);
        tracks := tracks_stmt lx :: !tracks;
        header ()
      | _ -> ()
    in
    header ();
    expect lx "COMPONENTS";
    let components =
      Array.of_list (section lx ~name:"COMPONENTS" ~entry:component_entry)
    in
    let io_pins =
      match Lex.peek lx with
      | Some { Lex.text = "PINS"; _ } ->
        ignore (Lex.next lx);
        section lx ~name:"PINS" ~entry:pin_entry
      | _ -> []
    in
    expect lx "NETS";
    let nets = Array.of_list (section lx ~name:"NETS" ~entry:net_entry) in
    expect lx "END";
    expect lx "DESIGN";
    (match Lex.peek lx with
    | None -> ()
    | Some t -> err_at t ~expected:"end of input");
    {
      design;
      dbu;
      die;
      rows = List.rev !rows;
      tracks = List.rev !tracks;
      components;
      io_pins;
      nets;
    }
  with
  | doc -> Ok doc
  | exception E e -> Error e

let parse_file path = parse (Lex.read_whole_file path)

(* --- mapping --------------------------------------------------------- *)

let dbu_per_micron = 1000

let of_design (d : Netlist.Design.t) (p : Netlist.Def_io.placement) =
  let tech = d.lib.Pdk.Libgen.tech in
  let die = p.Netlist.Def_io.die in
  let width = Geom.Rect.width die and height = Geom.Rect.height die in
  let num_rows = height / tech.Pdk.Tech.row_height in
  let sites_per_row = width / tech.Pdk.Tech.site_width in
  let rows =
    List.init num_rows (fun r ->
        {
          r_name = Printf.sprintf "row_%d" r;
          r_site = "core";
          r_x = die.Geom.Rect.lx;
          r_y = die.Geom.Rect.ly + (r * tech.Pdk.Tech.row_height);
          r_orient = Geom.Orient.N;
          r_count = sites_per_row;
          r_step = tech.Pdk.Tech.site_width;
        })
  in
  let tracks =
    [
      {
        t_axis = Y;
        t_start = die.Geom.Rect.ly;
        t_count = height / tech.Pdk.Tech.m0_pitch;
        t_step = tech.Pdk.Tech.m0_pitch;
        t_layer = "M0";
      };
      {
        t_axis = X;
        t_start = die.Geom.Rect.lx + tech.Pdk.Tech.m1_offset;
        t_count = sites_per_row;
        t_step = tech.Pdk.Tech.site_width;
        t_layer = "M1";
      };
      {
        t_axis = Y;
        t_start = die.Geom.Rect.ly;
        t_count = height / tech.Pdk.Tech.m2_pitch;
        t_step = tech.Pdk.Tech.m2_pitch;
        t_layer = "M2";
      };
    ]
  in
  let components =
    Array.mapi
      (fun i (inst : Netlist.Design.instance) ->
        {
          c_name = inst.inst_name;
          c_master = inst.master.Pdk.Stdcell.name;
          c_x = p.Netlist.Def_io.xs.(i);
          c_y = p.Netlist.Def_io.ys.(i);
          c_orient = p.Netlist.Def_io.orients.(i);
        })
      d.instances
  in
  let nets =
    Array.map
      (fun (n : Netlist.Design.net) ->
        {
          n_name = n.net_name;
          n_pins =
            Array.to_list
              (Array.map
                 (fun (pr : Netlist.Design.pin_ref) ->
                   let inst = d.instances.(pr.inst) in
                   let mp = List.nth inst.master.Pdk.Stdcell.pins pr.pin in
                   (inst.inst_name, mp.Pdk.Stdcell.pin_name))
                 n.pins);
          n_is_clock = n.is_clock;
        })
      d.nets
  in
  {
    design = d.name;
    dbu = dbu_per_micron;
    die;
    rows;
    tracks;
    components;
    io_pins = [];
    nets;
  }

let to_design (lib : Pdk.Libgen.t) (doc : t) =
  match
    if doc.dbu <> dbu_per_micron then
      failwith
        (Printf.sprintf
           "UNITS DISTANCE MICRONS must be %d (1 DBU = 1 nm), got %d"
           dbu_per_micron doc.dbu);
    let ncomps = Array.length doc.components in
    let inst_index = Hashtbl.create ncomps in
    Array.iteri
      (fun i (c : component) ->
        if Hashtbl.mem inst_index c.c_name then
          failwith (Printf.sprintf "duplicate component %S" c.c_name);
        Hashtbl.replace inst_index c.c_name i)
      doc.components;
    let masters =
      Array.map
        (fun (c : component) ->
          match Pdk.Libgen.find_opt lib c.c_master with
          | Some m -> m
          | None ->
            failwith
              (Printf.sprintf "unknown master %S (component %S)" c.c_master
                 c.c_name))
        doc.components
    in
    let pin_nets =
      Array.map
        (fun (m : Pdk.Stdcell.t) -> Array.make (List.length m.pins) (-1))
        masters
    in
    let pin_index (m : Pdk.Stdcell.t) pname =
      let rec go k = function
        | [] ->
          failwith
            (Printf.sprintf "master %S has no pin %S" m.Pdk.Stdcell.name pname)
        | (p : Pdk.Stdcell.pin) :: rest ->
          if String.equal p.pin_name pname then k else go (k + 1) rest
      in
      go 0 m.Pdk.Stdcell.pins
    in
    let nets =
      Array.mapi
        (fun nid (n : net) ->
          let pin_refs =
            List.map
              (fun (iname, pname) ->
                let i =
                  match Hashtbl.find_opt inst_index iname with
                  | Some i -> i
                  | None ->
                    failwith
                      (Printf.sprintf "net %S references unknown component %S"
                         n.n_name iname)
                in
                let k = pin_index masters.(i) pname in
                pin_nets.(i).(k) <- nid;
                { Netlist.Design.inst = i; pin = k })
              n.n_pins
          in
          {
            Netlist.Design.net_name = n.n_name;
            pins = Array.of_list pin_refs;
            is_clock = n.n_is_clock;
          })
        doc.nets
    in
    let instances =
      Array.mapi
        (fun i (c : component) ->
          {
            Netlist.Design.inst_name = c.c_name;
            master = masters.(i);
            pin_nets = pin_nets.(i);
          })
        doc.components
    in
    let design = { Netlist.Design.name = doc.design; lib; instances; nets } in
    let placement =
      {
        Netlist.Def_io.die = doc.die;
        xs = Array.map (fun c -> c.c_x) doc.components;
        ys = Array.map (fun c -> c.c_y) doc.components;
        orients = Array.map (fun c -> c.c_orient) doc.components;
      }
    in
    (design, placement)
  with
  | v -> Ok v
  | exception Failure msg -> Error msg

(* --- the old Netlist.Def_io surface ---------------------------------- *)

let write d p = emit (of_design d p)

let write_file path d p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write d p))

let read lib s =
  match parse s with
  | Error e -> Error (Lex.error_to_string e)
  | Ok doc -> to_design lib doc

let read_file lib path = read lib (Lex.read_whole_file path)
